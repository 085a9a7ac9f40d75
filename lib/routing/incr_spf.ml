(* Incremental single-source shortest-path-tree maintenance over the
   rows of a topology table, in the Ramalingam–Reps style: given the edge
   changes since the last run, repair only the affected region.

   The repair has five phases:

   1. Classify each change against the current tree: a change to the
      tree edge feeding [tail] that no longer supports its distance
      orphans [tail]; a change that offers a significantly shorter path
      seeds a decrease.
   2. Orphan collection: the tree subtree under every orphan seed loses
      its distance (walk tree children along the out-rows). If the
      orphaned region exceeds [max_dirty_frac] of the graph, repairing
      costs as much as recomputing — fall back to a full run.
   3. Boundary re-initialization: each orphan's best re-entry from the
      intact region (minimum over in-edges from non-orphans, along the
      in-rows) primes the heap; decrease seeds join it.
   4. Heap repair: the same (distance, id)-ordered flat heap discipline
      as the full run — pop, settle, relax out-edges accepting only
      significant improvements. Distances propagate as the same
      [dist u +. w] float expressions the full run evaluates, so
      repaired distances are bit-identical to a from-scratch run.
   5. Parent canonicalization: the full run's parent of [v] is the
      smallest-id in-neighbor [u] achieving [close (dist u +. w)
      (dist v)] — valid because with strictly positive costs every
      achiever settles strictly before [v]. Re-derive the parent from
      that rule for every node whose achiever set may have moved:
      orphans, distance-changed nodes, their out-neighbors, and the
      tails of changed edges.

   Two situations break the canonical-parent characterization and force
   a full-run fallback: a zero-cost edge anywhere in the table (settle
   order inside an equal-distance plateau then depends on plateau
   structure the local rule cannot see), detected by scanning the rows
   at every full run and every change batch; and an achiever
   whose own distance is within tolerance of its target's (a
   sub-tolerance edge), detected during canonicalization. Inputs whose
   distinct path costs collide within the 1e-12 relative tolerance
   without being exactly equal are outside the equivalence contract —
   there even two full runs relaxing in different orders disagree in
   the last bits. Exact ties (bit-identical sums) are fully handled.

   Rows are visited in the order the table keeps them (out-rows by
   ascending tail, in-rows by ascending head; ids >= n skipped), the
   order every full run relaxes in. Steady-state repairs allocate
   nothing per edge: rows are walked in place by top-level loops (no
   closures), marks are stamp arrays (no clearing), worklists are
   growable int/float vectors reused across calls, and the undo log
   doubles as the changed-node report. *)

type stats = {
  mutable full_runs : int;
  mutable repairs : int;
  mutable fallbacks : int;
  mutable repaired_nodes : int;
}

type state = {
  dist : float array;
  parent : int array;
  n : int;
  root : int;
  mutable has_zero : bool;
  stats : stats;
}

type outcome = Repaired of int | Recomputed

(* The tree of the empty table: only the root is reached. *)
let create ~n ~root =
  if n <= 0 then invalid_arg "Incr_spf.create: n must be positive";
  if root < 0 || root >= n then invalid_arg "Incr_spf.create: root out of range";
  let dist = Array.make n infinity in
  dist.(root) <- 0.0;
  {
    dist;
    parent = Array.make n (-1);
    n;
    root;
    has_zero = false;
    stats = { full_runs = 0; repairs = 0; fallbacks = 0; repaired_nodes = 0 };
  }

type ws = {
  dj : Dijkstra.workspace;
  (* Flat binary heap ordered by (distance, id), as in Dijkstra. *)
  mutable heap_d : float array;
  mutable heap_n : int array;
  mutable heap_len : int;
  (* Stamp marks: a cell equals [stamp] iff marked this update. *)
  mutable stamp : int;
  mutable orphan_at : int array;
  mutable settled_at : int array;
  mutable logged_at : int array;
  mutable recheck_at : int array;
  (* Orphan worklist; the BFS reads it back as its own queue. *)
  mutable orphans : int array;
  mutable orphans_len : int;
  (* Decrease seeds (u, v, new cost of edge u->v). *)
  mutable dec_u : int array;
  mutable dec_v : int array;
  mutable dec_c : float array;
  mutable dec_len : int;
  (* Undo log: pre-update (dist, parent) of every written node. *)
  mutable log_node : int array;
  mutable log_dist : float array;
  mutable log_parent : int array;
  mutable log_len : int;
  (* Parent-canonicalization worklist. *)
  mutable recheck : int array;
  mutable recheck_len : int;
  (* Changed-node report, sorted ascending before emission. *)
  mutable changed : int array;
  mutable changed_len : int;
}

let workspace () =
  {
    dj = Dijkstra.workspace ();
    heap_d = Array.make 64 0.0;
    heap_n = Array.make 64 0;
    heap_len = 0;
    stamp = 0;
    orphan_at = [||];
    settled_at = [||];
    logged_at = [||];
    recheck_at = [||];
    orphans = Array.make 16 0;
    orphans_len = 0;
    dec_u = Array.make 16 0;
    dec_v = Array.make 16 0;
    dec_c = Array.make 16 0.0;
    dec_len = 0;
    log_node = Array.make 16 0;
    log_dist = Array.make 16 0.0;
    log_parent = Array.make 16 0;
    log_len = 0;
    recheck = Array.make 16 0;
    recheck_len = 0;
    changed = Array.make 16 0;
    changed_len = 0;
  }

let stats st = st.stats

let grow_int a needed =
  if Array.length a >= needed then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a needed =
  if Array.length a >= needed then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let prepare ws n =
  if Array.length ws.orphan_at < n then begin
    ws.orphan_at <- grow_int ws.orphan_at n;
    ws.settled_at <- grow_int ws.settled_at n;
    ws.logged_at <- grow_int ws.logged_at n;
    ws.recheck_at <- grow_int ws.recheck_at n
  end;
  (* Stale stamps from before a growth are <= the old stamp, so simply
     advancing the stamp unmarks everything, grown cells included. *)
  ws.stamp <- ws.stamp + 1;
  ws.heap_len <- 0;
  ws.orphans_len <- 0;
  ws.dec_len <- 0;
  ws.log_len <- 0;
  ws.recheck_len <- 0;
  ws.changed_len <- 0

(* Heap push/pop: identical (d, id)-lexicographic discipline to
   Dijkstra's, on this workspace's arrays. *)
let heap_push ws d v =
  if ws.heap_len = Array.length ws.heap_d then begin
    ws.heap_d <- grow_float ws.heap_d (ws.heap_len + 1);
    ws.heap_n <- grow_int ws.heap_n (ws.heap_len + 1)
  end;
  let hd = ws.heap_d and hn = ws.heap_n in
  let i = ref ws.heap_len in
  ws.heap_len <- ws.heap_len + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if d < hd.(p) || (d = hd.(p) && v < hn.(p)) then begin
      hd.(!i) <- hd.(p);
      hn.(!i) <- hn.(p);
      i := p
    end
    else sifting := false
  done;
  hd.(!i) <- d;
  hn.(!i) <- v

(* Pops the minimum into (heap_pop_d, heap_pop_n) via the returned
   pair-free protocol: caller reads hd.(0)/hn.(0) first. *)
let heap_drop ws =
  let hd = ws.heap_d and hn = ws.heap_n in
  ws.heap_len <- ws.heap_len - 1;
  let len = ws.heap_len in
  if len > 0 then begin
    let ld = hd.(len) and lv = hn.(len) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= len then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < len && (hd.(r) < hd.(l) || (hd.(r) = hd.(l) && hn.(r) < hn.(l)))
          then r
          else l
        in
        if hd.(c) < ld || (hd.(c) = ld && hn.(c) < lv) then begin
          hd.(!i) <- hd.(c);
          hn.(!i) <- hn.(c);
          i := c
        end
        else sifting := false
      end
    done;
    hd.(!i) <- ld;
    hn.(!i) <- lv
  end

let push_orphan ws v =
  if ws.orphan_at.(v) <> ws.stamp then begin
    ws.orphan_at.(v) <- ws.stamp;
    ws.orphans <- grow_int ws.orphans (ws.orphans_len + 1);
    ws.orphans.(ws.orphans_len) <- v;
    ws.orphans_len <- ws.orphans_len + 1
  end

let push_dec ws u v c =
  ws.dec_u <- grow_int ws.dec_u (ws.dec_len + 1);
  ws.dec_v <- grow_int ws.dec_v (ws.dec_len + 1);
  ws.dec_c <- grow_float ws.dec_c (ws.dec_len + 1);
  ws.dec_u.(ws.dec_len) <- u;
  ws.dec_v.(ws.dec_len) <- v;
  ws.dec_c.(ws.dec_len) <- c;
  ws.dec_len <- ws.dec_len + 1

let ensure_logged ws st v =
  if ws.logged_at.(v) <> ws.stamp then begin
    ws.logged_at.(v) <- ws.stamp;
    ws.log_node <- grow_int ws.log_node (ws.log_len + 1);
    ws.log_dist <- grow_float ws.log_dist (ws.log_len + 1);
    ws.log_parent <- grow_int ws.log_parent (ws.log_len + 1);
    ws.log_node.(ws.log_len) <- v;
    ws.log_dist.(ws.log_len) <- st.dist.(v);
    ws.log_parent.(ws.log_len) <- st.parent.(v);
    ws.log_len <- ws.log_len + 1
  end

let push_recheck ws v =
  if ws.recheck_at.(v) <> ws.stamp then begin
    ws.recheck_at.(v) <- ws.stamp;
    ws.recheck <- grow_int ws.recheck (ws.recheck_len + 1);
    ws.recheck.(ws.recheck_len) <- v;
    ws.recheck_len <- ws.recheck_len + 1
  end

(* In-place shellsort of the vector prefix — keeps steady state
   allocation-free where sorting a copy would not. *)
let sort_vec a len =
  let gap = ref 1 in
  while !gap < len / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    let g = !gap in
    for i = g to len - 1 do
      let x = a.(i) in
      let j = ref i in
      while !j >= g && a.(!j - g) > x do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- x
    done;
    gap := g / 3
  done

let full ws st table =
  Dijkstra.on_table_into ws.dj ~n:st.n ~root:st.root ~dist:st.dist ~parent:st.parent
    table;
  let zero = ref false in
  for h = 0 to st.n - 1 do
    if List.exists (fun (_, c) -> Float.equal c 0.0) (Topo_table.out_links table ~head:h)
    then zero := true
  done;
  st.has_zero <- !zero;
  st.stats.full_runs <- st.stats.full_runs + 1

exception Fallback

(* The row walks of the repair phases. Rows hold no negative ids; ids
   >= n lie outside the tree and are skipped. *)

(* Phase 2: the tree children of [v] join the orphans. *)
let rec orphan_children ws parent n v = function
  | [] -> ()
  | (c, _) :: rest ->
    if c < n && parent.(c) = v then push_orphan ws c;
    orphan_children ws parent n v rest

(* Phase 3b: the best re-entry of orphan [v] from the intact region. *)
let rec reenter ws dist parent n v = function
  | [] -> ()
  | (u, c) :: rest ->
    if u < n && ws.orphan_at.(u) <> ws.stamp && Float.is_finite dist.(u) then begin
      let nd = dist.(u) +. c in
      if nd < dist.(v) && not (Dijkstra.close nd dist.(v)) then begin
        dist.(v) <- nd;
        parent.(v) <- u
      end
    end;
    reenter ws dist parent n v rest

(* Phase 4: relax the out-links of [u], settled at distance [d]. *)
let rec relax ws st n u d = function
  | [] -> ()
  | (v, c) :: rest ->
    if v < n && ws.settled_at.(v) <> ws.stamp then begin
      let nd = d +. c in
      if nd < st.dist.(v) && not (Dijkstra.close nd st.dist.(v)) then begin
        ensure_logged ws st v;
        st.dist.(v) <- nd;
        st.parent.(v) <- u;
        heap_push ws nd v
      end
    end;
    relax ws st n u d rest

(* Phase 5: the out-neighbors of a distance-changed node. *)
let rec recheck_row ws n = function
  | [] -> ()
  | (t, _) :: rest ->
    if t < n then push_recheck ws t;
    recheck_row ws n rest

(* Phase 5: the smallest-id in-neighbor of [v] achieving [dist.(v)]
   ([best] if none is found). *)
let rec achiever dist n v best = function
  | [] -> best
  | (u, c) :: rest ->
    let du = if u < n then dist.(u) else infinity in
    let best =
      if Float.is_finite du && Dijkstra.close (du +. c) dist.(v) then begin
        if Dijkstra.close du dist.(v) then
          (* Sub-tolerance in-edge: the achiever is not strictly below
             its target, so settle order — not this local rule —
             decides the full run's parent. *)
          raise Fallback;
        if best < 0 then u else best
      end
      else best
    in
    achiever dist n v best rest

let default_max_dirty_frac = 0.25

let update ?(max_dirty_frac = default_max_dirty_frac) ?on_changed ws st table
    ~(changes : Topo_table.entry list) =
  let n = st.n and root = st.root in
  let dist = st.dist and parent = st.parent in
  if changes = [] then Repaired 0
  else begin
    let introduces_zero =
      List.exists (fun (e : Topo_table.entry) -> Float.equal e.cost 0.0) changes
    in
    if introduces_zero then st.has_zero <- true;
    if st.has_zero then begin
      st.stats.fallbacks <- st.stats.fallbacks + 1;
      full ws st table;
      Recomputed
    end
    else begin
      prepare ws n;
      match
        (* Phase 1: classify changes. *)
        List.iter
          (fun { Topo_table.head = u; tail = v; cost = c } ->
            if u >= 0 && u < n && v >= 0 && v < n && v <> root then begin
              push_recheck ws v;
              let du = dist.(u) in
              if Float.is_finite c && Float.is_finite du then begin
                let nd = du +. c in
                if nd < dist.(v) && not (Dijkstra.close nd dist.(v)) then
                  push_dec ws u v c
                else if
                  parent.(v) = u
                  && nd > dist.(v)
                  && not (Dijkstra.close nd dist.(v))
                then push_orphan ws v
              end
              else if parent.(v) = u then
                (* Removed edge (or unreachable head) was the support. *)
                push_orphan ws v
            end)
          changes;
        (* Phase 2: collect orphaned subtrees (tree children along the
           out-rows; the orphan vector doubles as the BFS queue). *)
        let i = ref 0 in
        while !i < ws.orphans_len do
          let v = ws.orphans.(!i) in
          incr i;
          orphan_children ws parent n v (Topo_table.out_links table ~head:v)
        done;
        if float_of_int ws.orphans_len > max_dirty_frac *. float_of_int n then
          raise Fallback;
        (* Phase 3a: void the orphan region. *)
        for k = 0 to ws.orphans_len - 1 do
          let v = ws.orphans.(k) in
          ensure_logged ws st v;
          dist.(v) <- infinity;
          parent.(v) <- -1
        done;
        (* Phase 3b: re-enter each orphan from the intact region. *)
        for k = 0 to ws.orphans_len - 1 do
          let v = ws.orphans.(k) in
          reenter ws dist parent n v (Topo_table.in_links table ~tail:v);
          if Float.is_finite dist.(v) then heap_push ws dist.(v) v
        done;
        (* Phase 3c: decrease seeds (skipping sources that were
           orphaned after classification saw them — their distances
           are void and will relax properly from within the heap). *)
        for k = 0 to ws.dec_len - 1 do
          let u = ws.dec_u.(k) and v = ws.dec_v.(k) and c = ws.dec_c.(k) in
          if ws.orphan_at.(u) <> ws.stamp && Float.is_finite dist.(u) then begin
            let nd = dist.(u) +. c in
            if nd < dist.(v) && not (Dijkstra.close nd dist.(v)) then begin
              ensure_logged ws st v;
              dist.(v) <- nd;
              parent.(v) <- u;
              heap_push ws nd v
            end
          end
        done;
        (* Phase 4: heap repair, the full run's settle/relax discipline
           restricted to the affected region. Parents written here are
           provisional; phase 5 canonicalizes them. *)
        while ws.heap_len > 0 do
          let d = ws.heap_d.(0) and u = ws.heap_n.(0) in
          heap_drop ws;
          if ws.settled_at.(u) <> ws.stamp && Dijkstra.close d dist.(u) then begin
            ws.settled_at.(u) <- ws.stamp;
            relax ws st n u d (Topo_table.out_links table ~head:u)
          end
        done;
        (* Phase 5: canonicalize parents wherever the achiever set may
           have moved — every written node, every out-neighbor of a
           distance-changed node, every changed-edge tail. *)
        for k = 0 to ws.log_len - 1 do
          let v = ws.log_node.(k) in
          push_recheck ws v;
          if not (Float.equal ws.log_dist.(k) dist.(v)) then
            recheck_row ws n (Topo_table.out_links table ~head:v)
        done;
        sort_vec ws.recheck ws.recheck_len;
        for k = 0 to ws.recheck_len - 1 do
          let v = ws.recheck.(k) in
          if v = root || not (Float.is_finite dist.(v)) then begin
            if parent.(v) <> -1 then begin
              ensure_logged ws st v;
              parent.(v) <- -1
            end
          end
          else begin
            let best = achiever dist n v (-1) (Topo_table.in_links table ~tail:v) in
            (* A finite distance must have a supporting in-edge. *)
            if best < 0 then raise Fallback;
            if parent.(v) <> best then begin
              ensure_logged ws st v;
              parent.(v) <- best
            end
          end
        done;
        (* Report: every logged node whose (dist, parent) actually
           moved, in ascending id order. *)
        for k = 0 to ws.log_len - 1 do
          let v = ws.log_node.(k) in
          if
            (not (Float.equal ws.log_dist.(k) dist.(v)))
            || ws.log_parent.(k) <> parent.(v)
          then begin
            ws.changed <- grow_int ws.changed (ws.changed_len + 1);
            ws.changed.(ws.changed_len) <- v;
            ws.changed_len <- ws.changed_len + 1
          end
        done;
        sort_vec ws.changed ws.changed_len;
        (match on_changed with
        | None -> ()
        | Some f ->
          for k = 0 to ws.changed_len - 1 do
            f ws.changed.(k)
          done);
        st.stats.repairs <- st.stats.repairs + 1;
        st.stats.repaired_nodes <- st.stats.repaired_nodes + ws.changed_len;
        ws.changed_len
      with
      | count -> Repaired count
      | exception Fallback ->
        st.stats.fallbacks <- st.stats.fallbacks + 1;
        full ws st table;
        Recomputed
    end
  end
