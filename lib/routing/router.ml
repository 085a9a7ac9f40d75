module Bin = Mdr_util.Bin
module Sorted_tbl = Mdr_util.Sorted_tbl

type mode = Pda | Mpda

type msg = {
  entries : Topo_table.entry list;
  reset : bool;
  seq : int option;
  ack_of : int option;
}

type output = { dst : int; msg : msg }

type t = {
  mode : mode;
  id : int;
  n : int;
  tree_cost : float array;
      (* the main table T_i, which is the shortest-path tree: the cost
         of the tree link into each node, whose head is [parent_buf];
         [infinity] for the root and the nodes the tree does not reach *)
  nbrs : (int, Nbr_forest.t) Hashtbl.t;
      (* T_k^i per neighbor k, kept after k goes down (then empty); its
         [dist] is D_jk, from k to each dst *)
  parent_buf : int array;  (* main-table SPF parents, maintained in place *)
  merged : Topo_table.t;
      (* the MTU's merged topology (steps 2-5), kept across events so an
         event only rewrites the rows whose preferred source moved *)
  pref : int array;
      (* per row j other than this router's own: the up neighbor k
         minimizing D_jk + l_k, the lowest id on ties, -1 when none
         reaches j (and for the own row). Kept current at every event;
         row j of [merged] is j's children in T_pref(j) *)
  pref_sum : float array;  (* D_jk + l_k for k = pref.(j); infinity at -1 *)
  dirty : bool array;
      (* rows of [merged] that may differ from their derivation and are
         re-derived at the next MTU; every other row is current.
         Accumulates while an MPDA ACTIVE phase defers the table update *)
  mutable marked : int list;  (* the rows set in [dirty], unordered *)
  main_spf : Incr_spf.state;  (* owns [dist] and [parent_buf] *)
  adjacent : (int, float) Hashtbl.t;  (* l_k; absent = down *)
  mutable up : int list;  (* the keys of [adjacent], ascending *)
  dist : float array;  (* D_j; updated in place *)
  first_hop : int array;  (* preferred neighbor toward each dst; -1 *)
  fd : float array;  (* FD_j *)
  succ : int list array;  (* S_j; out of date where [stale] is set *)
  stale : bool array;
      (* destinations whose S_j may have moved since it was computed:
         an FD change (D_j in PDA mode) or a D_jk change for an up
         neighbor k. A link cost is not an input. Recomputed on the
         next read, so events pay only the marking *)
  mutable stale_list : int list;  (* the destinations set in [stale], unordered *)
  mutable all_stale : bool;
      (* every S_j may have moved (a link went up or down); [stale]
         and [stale_list] then hold only what was marked before *)
  mutable active : bool;
  mutable active_phases : int;  (* PASSIVE -> ACTIVE transitions *)
  pending : (int, int) Hashtbl.t;  (* nbr -> seq awaited *)
  ghosts : (int, unit) Hashtbl.t;
      (* neighbors torn down *unilaterally* (inferred failure) that may
         still be routing through us on stale state. FD must not rise
         while any ghost remains: raising it would break the
         FD <= (distance the ghost holds about us) invariant that
         loop-freedom rests on, because a ghost — unlike a live
         neighbor — can never be asked to ACK the rise. *)
  mutable needs_full : int list;  (* neighbors owed a full-table LSU *)
  mutable next_seq : int;
  mutable sent : int;
}

(* Scratch of the neighbor-table and main-table updates, one per
   domain: it holds nothing between events, so every router a domain
   runs shares it whatever its [n]. Loops are bounded by the router's
   [n], never by the scratch's length. *)
type scratch = {
  fws : Nbr_forest.ws;
  iws : Incr_spf.ws;
  mutable prev_parent : int array;  (* parents before the MTU's repair *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { fws = Nbr_forest.workspace (); iws = Incr_spf.workspace (); prev_parent = [||] })

let scratch () = Domain.DLS.get scratch_key

let create ~mode ~id ~n () =
  if id < 0 || id >= n then invalid_arg "Router.create: id out of range";
  let main_spf = Incr_spf.create ~n ~root:id in
  {
    mode;
    id;
    n;
    tree_cost = Array.make n infinity;
    nbrs = Hashtbl.create 8;
    parent_buf = main_spf.parent;
    merged = Topo_table.create ();
    pref = Array.make n (-1);
    pref_sum = Array.make n infinity;
    dirty = Array.make n false;
    marked = [];
    main_spf;
    adjacent = Hashtbl.create 8;
    up = [];
    dist = main_spf.dist;
    first_hop = Array.make n (-1);
    fd =
      (let d = Array.make n infinity in
       d.(id) <- 0.0;
       d);
    succ = Array.make n [];
    stale = Array.make n false;
    stale_list = [];
    all_stale = false;
    active = false;
    active_phases = 0;
    pending = Hashtbl.create 8;
    ghosts = Hashtbl.create 4;
    needs_full = [];
    next_seq = 0;
    sent = 0;
  }

let id t = t.id
let mode t = t.mode
let is_passive t = not t.active
let distance t ~dst = t.dist.(dst)
let feasible_distance t ~dst = t.fd.(dst)

(* --- Successor sets (Eq. 17 / line 4 of MPDA), computed lazily ------- *)

let neighbor_distance t ~nbr ~dst =
  match Hashtbl.find_opt t.nbrs nbr with
  | None -> infinity
  | Some f -> (Nbr_forest.dist f).(dst)

let link_cost t ~nbr =
  match Hashtbl.find_opt t.adjacent nbr with Some c -> c | None -> infinity

let up_neighbors t = t.up

(* Link up/down: the only edits of [adjacent]'s key set. *)
let set_adjacent t nbr cost =
  if not (Hashtbl.mem t.adjacent nbr) then t.up <- List.merge Int.compare [ nbr ] t.up;
  Hashtbl.replace t.adjacent nbr cost

let remove_adjacent t nbr =
  Hashtbl.remove t.adjacent nbr;
  t.up <- List.filter (fun k -> k <> nbr) t.up

let is_stale t j = t.all_stale || t.stale.(j)

let mark_stale t j =
  if not (is_stale t j) then begin
    t.stale.(j) <- true;
    t.stale_list <- j :: t.stale_list
  end

let mark_all_stale t = t.all_stale <- true

(* S_j from scratch: the up neighbors k with D_jk < FD_j (D_j in PDA
   mode), ascending. *)
let fresh_successors t j =
  if j = t.id then []
  else begin
    let bound = match t.mode with Mpda -> t.fd.(j) | Pda -> t.dist.(j) in
    List.filter (fun k -> neighbor_distance t ~nbr:k ~dst:j < bound) t.up
  end

let force_successors t =
  if t.all_stale then begin
    for j = 0 to t.n - 1 do
      t.stale.(j) <- false;
      t.succ.(j) <- fresh_successors t j
    done;
    t.stale_list <- [];
    t.all_stale <- false
  end
  else if t.stale_list <> [] then begin
    List.iter
      (fun j ->
        t.stale.(j) <- false;
        t.succ.(j) <- fresh_successors t j)
      t.stale_list;
    t.stale_list <- []
  end

let successors t ~dst =
  force_successors t;
  t.succ.(dst)

let changed_successors t =
  let changed = if t.all_stale then List.init t.n Fun.id else t.stale_list in
  force_successors t;
  changed

let best_successor t ~dst = if t.first_hop.(dst) < 0 then None else Some t.first_hop.(dst)

let entry_compare (a : Topo_table.entry) (b : Topo_table.entry) =
  match Int.compare a.head b.head with
  | 0 -> Int.compare a.tail b.tail
  | c -> c

(* The main table's links, sorted by (head, tail). *)
let main_entries t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    let c = t.tree_cost.(v) in
    if Float.is_finite c then
      acc := { Topo_table.head = t.parent_buf.(v); tail = v; cost = c } :: !acc
  done;
  List.sort entry_compare !acc

let main_table t =
  let table = Topo_table.create () in
  List.iter (Topo_table.apply_entry table) (main_entries t);
  table

let stats_messages_sent t = t.sent
let stats_active_phases t = t.active_phases
let spf_stats t = Incr_spf.stats t.main_spf

(* --- NTU: neighbor-table maintenance ------------------------------- *)

let nbr_forest t ~nbr =
  match Hashtbl.find_opt t.nbrs nbr with
  | Some f -> f
  | None ->
    let f = Nbr_forest.create ~n:t.n ~root:nbr in
    Hashtbl.replace t.nbrs nbr f;
    f

let mark t j =
  if not t.dirty.(j) then begin
    t.dirty.(j) <- true;
    t.marked <- j :: t.marked
  end

(* D_jk + l_k for up neighbor [k]; infinity for -1. *)
let sum_via t k j =
  if k < 0 then infinity else (Nbr_forest.dist (Hashtbl.find t.nbrs k)).(j) +. link_cost t ~nbr:k

(* The preferred neighbor of row [j] from scratch: the first up
   neighbor, in id order, minimizing D_jk + l_k; -1 when none reaches
   [j], and for this router's own row. *)
let scan_pref t j =
  if j = t.id then -1
  else begin
    let rec scan best bd = function
      | [] -> best
      | k :: rest ->
        let d = sum_via t k j in
        if d < bd then scan k d rest else scan best bd rest
    in
    scan (-1) infinity t.up
  end

let set_pref t j k =
  t.pref.(j) <- k;
  t.pref_sum.(j) <- sum_via t k j

(* Row [j]'s preferred neighbor moved to [q]: the row is marked unless
   it is empty and [j] heads no link in T_q either. *)
let repointed t j q =
  if not t.dirty.(j) then
    match Topo_table.out_links t.merged ~head:j with
    | [] when q < 0 || Nbr_forest.is_leaf (Hashtbl.find t.nbrs q) j -> ()
    | _ -> mark t j

(* Row [j]'s sum through neighbor [k] is now [s], and no other sum of
   row [j] moved. A rise of the preferred neighbor's own sum rescans
   the row; any other move compares [s] with the preferred sum alone. *)
let repref t j ~k ~s =
  let p = t.pref.(j) in
  if p = k then begin
    if s > t.pref_sum.(j) then begin
      let q = scan_pref t j in
      set_pref t j q;
      if q <> k then repointed t j q
    end
    else t.pref_sum.(j) <- s
  end
  else if s < t.pref_sum.(j) || (s = t.pref_sum.(j) && k < p) then begin
    t.pref.(j) <- k;
    t.pref_sum.(j) <- s;
    repointed t j k
  end

(* A data LSU updates only the subtrees it moved; a full-table LSU
   reloads the table. Either way each node j whose D_jk changed moves
   its sum through [from_], may move its preferred neighbor, and may
   move its successor set. A changed link headed at j moves merged row
   j only when [from_] is j's preferred neighbor once the LSU is in;
   a row whose preferred neighbor moved is marked already. *)
let apply_lsu t ~from_ ~reset entries =
  let f = nbr_forest t ~nbr:from_ in
  let d = Nbr_forest.dist f and l = link_cost t ~nbr:from_ in
  let moved j =
    if j <> t.id then repref t j ~k:from_ ~s:(d.(j) +. l);
    mark_stale t j
  in
  let mark_heads =
    List.iter (fun (e : Topo_table.entry) -> if t.pref.(e.head) = from_ then mark t e.head)
  in
  try
    if reset then begin
      let old_dist = Array.copy d and old_links = Nbr_forest.entries f in
      Nbr_forest.load (scratch ()).fws f entries;
      Array.iteri (fun j old -> if not (Float.equal old d.(j)) then moved j) old_dist;
      mark_heads old_links;
      mark_heads (Nbr_forest.entries f)
    end
    else mark_heads (Nbr_forest.apply ~on_changed:moved (scratch ()).fws f entries)
  with Invalid_argument m ->
    invalid_arg (Printf.sprintf "Router %d: LSU from neighbor %d: %s" t.id from_ m)

(* l_k moved (to infinity when the link went down): every row k
   reaches moves its sum through k. Called after the adjacency change
   and before a down neighbor's table is cleared. The own row lists
   the adjacency. *)
let relink t ~nbr =
  let d = Nbr_forest.dist (nbr_forest t ~nbr) and l = link_cost t ~nbr in
  for j = 0 to t.n - 1 do
    if j <> t.id && Float.is_finite d.(j) then repref t j ~k:nbr ~s:(d.(j) +. l)
  done;
  mark t t.id

(* --- MTU: repair the main table -------------------------------------- *)

(* First hops for all destinations in one memoized pass over the parent
   forest (the old per-destination walk was quadratic on path-shaped
   trees). *)
let refresh_first_hops t =
  let fh = t.first_hop and parent = t.parent_buf and dist = t.dist in
  Array.fill fh 0 t.n (-2);
  fh.(t.id) <- -1;
  let rec resolve v =
    if fh.(v) <> -2 then fh.(v)
    else begin
      let r =
        if not (Float.is_finite dist.(v)) then -1
        else begin
          let p = parent.(v) in
          if p = t.id then v else if p < 0 then -1 else resolve p
        end
      in
      fh.(v) <- r;
      r
    end
  in
  for j = 0 to t.n - 1 do
    ignore (resolve j)
  done

(* Steps 2-5 for one row of the merged topology: this router's own row
   is its adjacency (step 5); any other row is the out-links of [j] in
   the table of [j]'s preferred neighbor [k]. *)
let derive_row t ~k j =
  if j = t.id then List.map (fun k -> (k, link_cost t ~nbr:k)) t.up
  else if k < 0 then []
  else Nbr_forest.children (Hashtbl.find t.nbrs k) j

(* Re-derive the dirty rows in place and return the net merged changes
   sorted by (head, tail), the input the SPF repair requires: rows in
   ascending order, each row's changes ascending by tail. *)
let repair_merged t =
  let dirty = List.sort Int.compare t.marked in
  List.iter (fun j -> t.dirty.(j) <- false) dirty;
  t.marked <- [];
  List.concat_map
    (fun j -> Topo_table.set_row t.merged ~head:j (derive_row t ~k:t.pref.(j) j))
    dirty

(* Steps 2-6: repair the merged rows, then the shortest-path tree over
   them, then the tree table and first hops over the nodes whose
   (distance, parent) moved — all [n] when the SPF fell back to a full
   run. Returns those nodes and the net tree-table changes, sorted by
   (head, tail), which are the outgoing LSU. *)
let mtu t =
  let merged_changes = repair_merged t in
  if merged_changes = [] then ([], [])
  else begin
    let s = scratch () in
    if Array.length s.prev_parent < t.n then s.prev_parent <- Array.make t.n (-1);
    let prev_parent = s.prev_parent in
    Array.blit t.parent_buf 0 prev_parent 0 t.n;
    let changed = ref [] in
    let moved =
      match
        Incr_spf.update s.iws t.main_spf t.merged ~changes:merged_changes
          ~on_changed:(fun v -> changed := v :: !changed)
      with
      | Incr_spf.Recomputed -> List.init t.n Fun.id
      | Incr_spf.Repaired _ -> List.rev !changed
    in
    (* PDA bounds S_j by D_j, which moved only at these nodes. *)
    if t.mode = Pda then List.iter (mark_stale t) moved;
    (* Per moved node, move its tree link: the old one's head is its
       parent before the repair. Per merged cost change, refresh the
       link cost if it is (still) a tree link. First hops follow the
       parents alone (a node the tree loses gets parent -1), so they
       move only if some parent did. *)
    let tree = t.tree_cost and acc = ref [] and reparented = ref false in
    List.iter
      (fun v ->
        let po = prev_parent.(v) and pn = t.parent_buf.(v) in
        if po <> pn then reparented := true;
        if po >= 0 && po <> pn && Float.is_finite tree.(v) then begin
          tree.(v) <- infinity;
          acc := { Topo_table.head = po; tail = v; cost = infinity } :: !acc
        end;
        if v <> t.id && pn >= 0 && Float.is_finite t.dist.(v) then begin
          match Topo_table.cost t.merged ~head:pn ~tail:v with
          | Some c ->
            if not (Float.equal tree.(v) c) then begin
              tree.(v) <- c;
              acc := { Topo_table.head = pn; tail = v; cost = c } :: !acc
            end
          | None -> assert false
        end)
      moved;
    List.iter
      (fun (e : Topo_table.entry) ->
        if
          Float.is_finite e.cost
          && e.tail <> t.id
          && t.parent_buf.(e.tail) = e.head
          && Float.is_finite t.dist.(e.tail)
          && not (Float.equal tree.(e.tail) e.cost)
        then begin
          tree.(e.tail) <- e.cost;
          acc := e :: !acc
        end)
      merged_changes;
    if !reparented then refresh_first_hops t;
    (moved, List.sort entry_compare !acc)
  end

(* --- Output composition --------------------------------------------- *)

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let compose_outputs t ~changes ~ack_to =
  (* [ack_to]: Some (k, seq) when the event was a data LSU from k whose
     [seq] must be acknowledged. Full tables go to neighbors that just
     came up, the changes to every other up neighbor; [full] is an
     ordered sublist of the up neighbors. *)
  let nbrs = up_neighbors t in
  let full = if t.needs_full = [] then [] else List.filter (fun k -> List.mem k t.needs_full) nbrs in
  t.needs_full <- [];
  let outputs = ref [] in
  let ack_consumed = ref false in
  let send k ~is_full =
    let entries = if is_full then main_entries t else changes in
    let seq = match t.mode with Mpda -> Some (fresh_seq t) | Pda -> None in
    let ack_of =
      match ack_to with Some (k', s) when k' = k -> Some s | Some _ | None -> None
    in
    if ack_of <> None then ack_consumed := true;
    (match (t.mode, seq) with
    | Mpda, Some s -> Hashtbl.replace t.pending k s
    | Mpda, None | Pda, _ -> ());
    outputs := { dst = k; msg = { entries; reset = is_full; seq; ack_of } } :: !outputs
  in
  let rec walk full = function
    | [] -> ()
    | k :: rest -> (
      match full with
      | k' :: full' when k' = k ->
        send k ~is_full:true;
        walk full' rest
      | _ ->
        if changes <> [] then send k ~is_full:false;
        walk full rest)
  in
  walk full nbrs;
  (* Pure ACK when the triggering LSU got no piggybacked reply. *)
  (match ack_to with
  | Some (k, s) when (not !ack_consumed) && Hashtbl.mem t.adjacent k ->
    outputs :=
      { dst = k; msg = { entries = []; reset = false; seq = None; ack_of = Some s } }
      :: !outputs
  | Some _ | None -> ());
  if t.mode = Mpda && Hashtbl.length t.pending > 0 then begin
    if not t.active then t.active_phases <- t.active_phases + 1;
    t.active <- true
  end;
  t.sent <- t.sent + List.length !outputs;
  List.rev !outputs

(* --- The MPDA event loop (Fig. 4) ----------------------------------- *)

let process t ~ack_to ~ack_received =
  (* [ack_received]: Some (nbr, seq) when the event carried an ACK. *)
  (match ack_received with
  | Some (nbr, seq) -> (
    match Hashtbl.find_opt t.pending nbr with
    | Some expected when expected = seq -> Hashtbl.remove t.pending nbr
    | Some _ | None -> ())
  | None -> ());
  let last_ack = t.active && Hashtbl.length t.pending = 0 in
  let changes =
    match t.mode with
    | Pda -> snd (mtu t)
    | Mpda ->
      if not t.active then begin
        (* Lines 2a-2b: PASSIVE — update T and lower FD to D. With
           FD_j <= D_j on entry, FD_j can fall only where D_j moved.
           Each FD move marks S_j, which compares against it. The
           loops compare in place: a float passed to a helper would
           be boxed, once per node. *)
        let moved, changes = mtu t in
        List.iter
          (fun j ->
            let fd = Float.min t.fd.(j) t.dist.(j) in
            if fd <> t.fd.(j) then begin
              mark_stale t j;
              t.fd.(j) <- fd
            end)
          moved;
        changes
      end
      else if last_ack then begin
        (* Lines 3a-3c: the deferred MTU runs now; FD may rise to
           min(old D, new D) — unless a ghost still holds an old claim,
           in which case FD stays pinned (it may only keep falling)
           until every unilateral teardown is confirmed bilateral. *)
        let temp = Array.copy t.dist in
        t.active <- false;
        let _, changes = mtu t in
        if Hashtbl.length t.ghosts = 0 then
          for j = 0 to t.n - 1 do
            let fd = Float.min temp.(j) t.dist.(j) in
            if fd <> t.fd.(j) then mark_stale t j;
            t.fd.(j) <- fd
          done
        else
          for j = 0 to t.n - 1 do
            let fd = Float.min t.fd.(j) (Float.min temp.(j) t.dist.(j)) in
            if fd <> t.fd.(j) then mark_stale t j;
            t.fd.(j) <- fd
          done;
        changes
      end
      else []
  in
  compose_outputs t ~changes ~ack_to

(* --- Event handlers -------------------------------------------------- *)

let handle_link_up t ~nbr ~cost =
  if not (Float.is_finite cost) || cost < 0.0 then
    invalid_arg "Router.handle_link_up: bad cost";
  mark_all_stale t;
  set_adjacent t nbr cost;
  relink t ~nbr;
  if not (List.mem nbr t.needs_full) then t.needs_full <- nbr :: t.needs_full;
  process t ~ack_to:None ~ack_received:None

let handle_link_down ?(unconfirmed = false) t ~nbr =
  if Hashtbl.mem t.adjacent nbr then begin
    mark_all_stale t;
    remove_adjacent t nbr;
    relink t ~nbr;
    (* A bilateral (oracle-announced) failure means the peer forgot us
       in the same instant; an inferred one means the peer may still
       hold — and route on — its old view of us, so it keeps a claim on
       FD until {!confirm_link_down}. *)
    if unconfirmed then Hashtbl.replace t.ghosts nbr ();
    Nbr_forest.clear (nbr_forest t ~nbr);
    t.needs_full <- List.filter (fun k -> k <> nbr) t.needs_full;
    (* Pending ACKs from the failed neighbor count as received. *)
    let ack = Hashtbl.find_opt t.pending nbr |> Option.map (fun s -> (nbr, s)) in
    process t ~ack_to:None ~ack_received:ack
  end
  else []

let confirm_link_down t ~nbr =
  if not (Hashtbl.mem t.ghosts nbr) then []
  else begin
    Hashtbl.remove t.ghosts nbr;
    (* FD was pinned while the ghost lived. If it lags the current
       distance and no diffusing computation is running to lift it,
       run an empty one: neighbors ACK the probe and the completion
       raises FD through the ordinary, loop-safe path. *)
    let lagging = ref false in
    for j = 0 to t.n - 1 do
      if t.fd.(j) +. 1e-12 < t.dist.(j) then lagging := true
    done;
    if t.mode = Mpda && Hashtbl.length t.ghosts = 0 && (not t.active) && !lagging
    then begin
      let outputs =
        List.map
          (fun k ->
            let s = fresh_seq t in
            Hashtbl.replace t.pending k s;
            { dst = k; msg = { entries = []; reset = false; seq = Some s; ack_of = None } })
          (up_neighbors t)
      in
      if outputs <> [] then begin
        if not t.active then t.active_phases <- t.active_phases + 1;
        t.active <- true;
        t.sent <- t.sent + List.length outputs
      end;
      outputs
    end
    else []
  end

let handle_link_cost t ~nbr ~cost =
  if not (Hashtbl.mem t.adjacent nbr) then []
  else begin
    Hashtbl.replace t.adjacent nbr cost;
    relink t ~nbr;
    process t ~ack_to:None ~ack_received:None
  end

let handle_msg t ~from_ msg =
  if not (Hashtbl.mem t.adjacent from_) then []
  else begin
    if msg.entries <> [] || msg.reset then apply_lsu t ~from_ ~reset:msg.reset msg.entries;
    let ack_received = Option.map (fun s -> (from_, s)) msg.ack_of in
    let ack_to = Option.map (fun s -> (from_, s)) msg.seq in
    process t ~ack_to ~ack_received
  end

(* --- Self-check against a from-scratch rebuild ----------------------- *)

let check t =
  let bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let found = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !found = None then found := Some m) fmt in
  (* Neighbor distances: every forest against one walk down from its
     root, on a copy. *)
  let fws = (scratch ()).fws in
  Sorted_tbl.iter
    (fun k f ->
      let g = Nbr_forest.copy f in
      Nbr_forest.recompute fws g;
      Array.iteri
        (fun j d ->
          if not (bits d (Nbr_forest.dist g).(j)) then
            fail "D_%d via neighbor %d: %h, recomputed %h" j k d (Nbr_forest.dist g).(j))
        (Nbr_forest.dist f))
    t.nbrs;
  (* Preferred neighbors and their sums, kept current at every event,
     against a scan of every up neighbor; merged topology: every row
     not awaiting the next MTU equals its derivation from the scan's
     choice. *)
  let row_bits = List.equal (fun (t1, c1) (t2, c2) -> t1 = t2 && bits c1 c2) in
  for j = 0 to t.n - 1 do
    let k = scan_pref t j in
    if t.pref.(j) <> k then fail "preferred neighbor of %d: %d, from scratch %d" j t.pref.(j) k
    else if not (bits t.pref_sum.(j) (sum_via t k j)) then
      fail "preferred sum of %d: %h, from scratch %h" j t.pref_sum.(j) (sum_via t k j);
    if
      (not t.dirty.(j))
      && not (row_bits (Topo_table.out_links t.merged ~head:j) (derive_row t ~k j))
    then fail "merged row %d differs from its derivation" j
  done;
  (* Distances, parents, tree table and first hops against a full
     Dijkstra over the stored merged table (reads never change it). *)
  let res = Dijkstra.on_table ~n:t.n ~root:t.id t.merged in
  for j = 0 to t.n - 1 do
    if not (bits t.dist.(j) res.dist.(j)) then
      fail "D_%d: %h, Dijkstra %h" j t.dist.(j) res.dist.(j);
    if t.parent_buf.(j) <> res.parent.(j) then
      fail "parent of %d: %d, Dijkstra %d" j t.parent_buf.(j) res.parent.(j)
  done;
  let tree =
    Dijkstra.tree_of_result ~n:t.n ~root:t.id res ~cost:(fun ~head ~tail ->
        Option.get (Topo_table.cost t.merged ~head ~tail))
  in
  let entry_bits (a : Topo_table.entry) (b : Topo_table.entry) =
    a.head = b.head && a.tail = b.tail && bits a.cost b.cost
  in
  if not (List.equal entry_bits (main_entries t) (Topo_table.entries tree)) then
    fail "main table is not the shortest-path tree";
  let rec first_hop v = if res.parent.(v) = t.id then v else first_hop res.parent.(v) in
  for j = 0 to t.n - 1 do
    let expect = if j = t.id || not (Float.is_finite res.dist.(j)) then -1 else first_hop j in
    if t.first_hop.(j) <> expect then
      fail "first hop to %d: %d, expected %d" j t.first_hop.(j) expect
  done;
  (* Feasible distances never exceed distances: the PASSIVE update
     lowers FD only where D moved, which rests on this. *)
  if t.mode = Mpda then
    for j = 0 to t.n - 1 do
      if not (t.fd.(j) <= t.dist.(j)) then
        fail "FD_%d = %h exceeds D_%d = %h" j t.fd.(j) j t.dist.(j)
    done;
  (* Successor sets: every destination not marked stale holds its set
     from scratch, and the marked list is exactly the marked flags. *)
  let show s = String.concat "," (List.map string_of_int s) in
  for j = 0 to t.n - 1 do
    if (not (is_stale t j)) && not (List.equal Int.equal t.succ.(j) (fresh_successors t j)) then
      fail "S_%d = {%s} is unmarked but from scratch is {%s}" j (show t.succ.(j))
        (show (fresh_successors t j))
  done;
  if
    not
      (List.equal Int.equal
         (List.sort Int.compare t.stale_list)
         (List.filter (fun j -> t.stale.(j)) (List.init t.n Fun.id)))
  then fail "marked successor list and flags disagree";
  match !found with
  | None -> Ok ()
  | Some m -> Error (Printf.sprintf "Router %d: %s" t.id m)

(* --- Protocol-state codec --------------------------------------------- *)

(* In order: n, id, mode, the ACTIVE flag and counters; each neighbor
   table (down neighbors' empty ones too) as its sorted links; the
   adjacency; FD; pending ACKs, ghosts, owed full tables; each merged
   row still marked for the next MTU, with its stored content; the
   main SPF's counters. Tables ascend by key; ids and lengths are
   {!Mdr_util.Bin} u32, counters u64, floats f64. The marked rows are
   the one derived state that may differ from its derivation: while an
   ACTIVE phase defers the MTU they keep the content D and the tree
   came from, which the next MTU diffs against. *)
let snapshot t =
  force_successors t;
  Bin.encode 256 (fun b ->
      let u32 = Bin.add_u32 b and u64 = Bin.add_u64 b and f64 = Bin.add_f64 b in
      let flag v = Bin.add_u8 b (Bool.to_int v) in
      let list write l = Bin.add_list b (fun _ -> write) l in
      let table write bindings = list (fun (k, v) -> u32 k; write v) bindings in
      u32 t.n;
      u32 t.id;
      flag (t.mode = Mpda);
      flag t.active;
      List.iter u64 [ t.active_phases; t.next_seq; t.sent ];
      table
        (list (fun (e : Topo_table.entry) -> u32 e.head; u32 e.tail; f64 e.cost))
        (List.map (fun (k, f) -> (k, Nbr_forest.entries f)) (Sorted_tbl.bindings t.nbrs));
      table f64 (List.map (fun k -> (k, link_cost t ~nbr:k)) t.up);
      Array.iter f64 t.fd;
      table u64 (Sorted_tbl.bindings t.pending);
      table ignore (Sorted_tbl.bindings t.ghosts);
      table ignore (List.map (fun k -> (k, ())) (List.sort Int.compare t.needs_full));
      let marked = List.sort Int.compare t.marked in
      table (table f64) (List.map (fun j -> (j, Topo_table.out_links t.merged ~head:j)) marked);
      let spf = Incr_spf.stats t.main_spf in
      List.iter u64 [ spf.full_runs; spf.repairs; spf.fallbacks; spf.repaired_nodes ])

exception Corrupt of string

(* [restore], raising [Bin.Malformed]. *)
let read_router ~expected s =
  let r = Bin.reader s in
  let corrupt = Bin.malformed in
  let u32 () = Bin.get_u32 r and u64 () = Bin.get_u64 r and f64 () = Bin.get_f64 r in
  let flag () = match Bin.get_u8 r with 0 -> false | 1 -> true | c -> corrupt "flag %d" c in
  (* FD alone takes 8 bytes per node, which bounds [n] before anything
     of that size is allocated. *)
  let n = u32 () in
  if n = 0 || n > String.length s / 8 || n <> expected then corrupt "n = %d" n;
  let node () =
    let v = u32 () in
    if v >= n then corrupt "node id %d outside [0, %d)" v n;
    v
  in
  let rec repeat k read = if k > 0 then (read (); repeat (k - 1) read) in
  (* A u32 count, then that many keys, strictly ascending, each handed
     to [read] to read its value. *)
  let table read =
    let last = ref (-1) in
    repeat (u32 ()) (fun () ->
        let k = node () in
        if k <= !last then corrupt "key %d out of order" k;
        last := k;
        read k)
  in
  let cost () =
    let c = f64 () in
    if not (Float.is_finite c && c >= 0.0) then corrupt "link cost %h" c;
    c
  in
  let id = node () in
  let t = create ~mode:(if flag () then Mpda else Pda) ~id ~n () in
  t.active <- flag ();
  t.active_phases <- u64 ();
  t.next_seq <- u64 ();
  t.sent <- u64 ();
  table (fun k ->
      let links = ref [] in
      repeat (u32 ()) (fun () ->
          let head = node () in
          let tail = node () in
          links := { Topo_table.head; tail; cost = f64 () } :: !links);
      let f = Nbr_forest.create ~n ~root:k in
      (try Nbr_forest.load (scratch ()).fws f (List.rev !links)
       with Invalid_argument m -> corrupt "table of neighbor %d: %s" k m);
      Hashtbl.replace t.nbrs k f);
  table (fun k ->
      if k = id || not (Hashtbl.mem t.nbrs k) then corrupt "adjacent %d has no table" k;
      Hashtbl.replace t.adjacent k (cost ());
      t.up <- k :: t.up);
  t.up <- List.rev t.up;
  for j = 0 to n - 1 do
    t.fd.(j) <- f64 ()
  done;
  table (fun k -> Hashtbl.replace t.pending k (u64 ()));
  table (fun k -> Hashtbl.replace t.ghosts k ());
  table (fun k -> t.needs_full <- k :: t.needs_full);
  let dirty = ref [] in
  table (fun j ->
      let row = ref [] in
      table (fun tail -> row := (tail, cost ()) :: !row);
      dirty := (j, List.rev !row) :: !dirty);
  (* Every merged row from its derivation, then the rows awaiting the
     next MTU as the writer stored them. *)
  for j = 0 to n - 1 do
    set_pref t j (scan_pref t j);
    ignore (Topo_table.set_row t.merged ~head:j (derive_row t ~k:t.pref.(j) j))
  done;
  List.iter
    (fun (j, links) ->
      (try ignore (Topo_table.set_row t.merged ~head:j links)
       with Invalid_argument m -> corrupt "merged row %d: %s" j m);
      mark t j)
    !dirty;
  (* One full run gives the tree: the equivalence contract makes it
     bit-identical to the writer's incremental one. *)
  Incr_spf.full (scratch ()).iws t.main_spf t.merged;
  for v = 0 to n - 1 do
    let p = t.parent_buf.(v) in
    if v <> id && p >= 0 && Float.is_finite t.dist.(v) then
      t.tree_cost.(v) <- Option.get (Topo_table.cost t.merged ~head:p ~tail:v)
  done;
  refresh_first_hops t;
  mark_all_stale t;
  force_successors t;
  (* The counters last, so the full run above is not counted. *)
  let spf = Incr_spf.stats t.main_spf in
  spf.full_runs <- u64 ();
  spf.repairs <- u64 ();
  spf.fallbacks <- u64 ();
  spf.repaired_nodes <- u64 ();
  Bin.finish r;
  t

let restore ~n s =
  try read_router ~expected:n s with Bin.Malformed m -> raise (Corrupt m)

let fingerprint t =
  force_successors t;
  let b = Buffer.create 512 in
  let flt v = Buffer.add_string b (Printf.sprintf "%h," v) in
  let int v = Buffer.add_string b (string_of_int v ^ ",") in
  let table entries =
    List.iter
      (fun (e : Topo_table.entry) ->
        int e.head;
        int e.tail;
        flt e.cost)
      entries;
    Buffer.add_char b ';'
  in
  int t.id;
  Buffer.add_string b (match t.mode with Mpda -> "M" | Pda -> "P");
  Buffer.add_string b (if t.active then "A|" else "p|");
  table (main_entries t);
  Sorted_tbl.iter
    (fun k f ->
      int k;
      table (Nbr_forest.entries f))
    t.nbrs;
  Buffer.add_char b '|';
  Sorted_tbl.iter
    (fun k f ->
      int k;
      Array.iter flt (Nbr_forest.dist f))
    t.nbrs;
  Buffer.add_char b '|';
  Sorted_tbl.iter
    (fun k c ->
      int k;
      flt c)
    t.adjacent;
  Buffer.add_char b '|';
  Array.iter flt t.dist;
  Buffer.add_char b '|';
  Array.iter int t.first_hop;
  Buffer.add_char b '|';
  Array.iter flt t.fd;
  Buffer.add_char b '|';
  Array.iter (fun s -> List.iter int s; Buffer.add_char b ';') t.succ;
  Buffer.add_char b '|';
  Sorted_tbl.iter
    (fun k s ->
      int k;
      int s)
    t.pending;
  Buffer.add_char b '|';
  Sorted_tbl.iter (fun k () -> int k) t.ghosts;
  Buffer.add_char b '|';
  List.iter int (List.sort compare t.needs_full);
  int t.next_seq;
  Buffer.contents b
