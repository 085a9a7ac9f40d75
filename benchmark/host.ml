(* The host record printed with every run. *)

(* Filesystem type of [dir] as [stat -f] reports it. *)
let filesystem dir =
  match Unix.open_process_args_in "stat" [| "stat"; "-f"; "-c"; "%T"; dir |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let record ~journal_dir =
  Printf.sprintf
    "host cpus=%d ocaml=%s MDR_JOBS=%s domains_used=1 clock=%S transport=%S journal_fs=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "MDR_JOBS") ~default:"unset")
    Clock.source "Mdr_wire.Transport.pipe (in-process, no socket)"
    (filesystem journal_dir)
