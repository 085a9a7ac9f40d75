let names =
  [|
    (* west *)
    "lbl"; "ucb"; "parc"; "sri"; "ucsc"; "cisco-w"; "ucla"; "isi"; "sdsc"; "saic";
    (* midwest / east *)
    "anl"; "netstar"; "tioc"; "cisco-e"; "mit"; "bbn"; "isi-e"; "bell"; "mci-r";
    "tis"; "nasa"; "nrl-v6"; "udel"; "darpa"; "cmu";
    (* europe *)
    "ucl";
  |]

let mb = 1.0e6

(* (a, b, capacity Mb/s, propagation delay ms) — duplex. *)
let duplex_links =
  [
    (* Bay-Area ring and south-bay loop *)
    ("lbl", "ucb", 10.0, 1.0);
    ("ucb", "parc", 10.0, 1.5);
    ("parc", "sri", 10.0, 1.0);
    ("sri", "lbl", 10.0, 1.0);
    ("sri", "ucsc", 5.0, 1.5);
    ("ucsc", "cisco-w", 5.0, 1.0);
    ("cisco-w", "parc", 10.0, 1.5);
    (* toward Los Angeles / San Diego *)
    ("sri", "isi", 10.0, 2.5);
    ("cisco-w", "ucla", 10.0, 2.5);
    ("ucla", "isi", 10.0, 1.0);
    ("isi", "sdsc", 10.0, 1.5);
    ("ucla", "sdsc", 10.0, 1.5);
    ("sdsc", "saic", 5.0, 1.0);
    (* transcontinental trunks *)
    ("isi", "mci-r", 10.0, 4.0);
    ("lbl", "anl", 10.0, 3.5);
    ("anl", "mci-r", 10.0, 2.5);
    (* Washington DC ring *)
    ("mci-r", "darpa", 10.0, 1.0);
    ("darpa", "isi-e", 10.0, 1.0);
    ("isi-e", "nrl-v6", 5.0, 1.0);
    ("nrl-v6", "nasa", 5.0, 1.5);
    ("nasa", "tis", 10.0, 1.5);
    ("tis", "mci-r", 10.0, 1.0);
    (* northeast corridor *)
    ("tis", "udel", 10.0, 1.0);
    ("udel", "bell", 10.0, 1.0);
    ("bell", "bbn", 10.0, 1.5);
    ("bbn", "mit", 10.0, 1.0);
    ("mit", "cisco-e", 10.0, 1.0);
    ("cisco-e", "bbn", 10.0, 1.0);
    (* midwest spurs *)
    ("cmu", "darpa", 10.0, 1.5);
    ("cmu", "anl", 10.0, 2.0);
    ("netstar", "anl", 10.0, 2.0);
    ("netstar", "tioc", 10.0, 2.0);
    ("tioc", "mci-r", 10.0, 2.0);
    ("tioc", "bell", 10.0, 2.0);
    (* transatlantic *)
    ("ucl", "isi-e", 5.0, 8.0);
  ]

(* The links by node id, capacity in bit/s and delay in s, resolved
   once: a set-up then adds them without looking names up. *)
let duplex_ids =
  let id name =
    let rec find i =
      if i = Array.length names then invalid_arg ("Cairn: unknown router " ^ name)
      else if names.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  Array.of_list
    (List.map
       (fun (a, b, cap_mb, delay_ms) -> (id a, id b, cap_mb *. mb, delay_ms /. 1000.0))
       duplex_links)

let topology () =
  let g = Graph.create ~names in
  Array.iter
    (fun (a, b, capacity, prop_delay) ->
      Graph.add_link g ~src:a ~dst:b ~capacity ~prop_delay;
      Graph.add_link g ~src:b ~dst:a ~capacity ~prop_delay)
    duplex_ids;
  g

let flow_pair_names =
  [
    ("lbl", "mci-r");
    ("netstar", "isi-e");
    ("isi", "darpa");
    ("parc", "sdsc");
    ("sri", "mit");
    ("tioc", "sdsc");
    ("mit", "sri");
    ("isi-e", "netstar");
    ("sdsc", "parc");
    ("mci-r", "tioc");
    ("darpa", "isi");
  ]

let flow_pairs g =
  List.map
    (fun (a, b) -> (Graph.node_of_name g a, Graph.node_of_name g b))
    flow_pair_names
