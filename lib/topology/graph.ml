type node = int

type link = {
  src : node;
  dst : node;
  capacity : float;
  prop_delay : float;
}

type csr = { row : int array; links : link array }

(* Node-keyed tables hash the id itself rather than calling the
   polymorphic hash. Nothing iterates them, so bucket order is never
   observed. *)
module Node_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v land max_int
end)

type t = {
  names : string array;
  by_name : (string, node) Hashtbl.t;
  adjacency : link Node_tbl.t array;  (* per-src: dst -> link *)
  order : link list array;  (* per-src out-links, reversed insertion order *)
  mutable all_links_rev : link list;
  mutable link_count : int;
  (* Lazily built flat adjacency, keyed by the link count at build time
     (links are only ever added, never removed). Atomic so domains
     sharing one topology publish a fully-initialised view; losing a
     build race just wastes one rebuild of identical content. *)
  out_cache : (int * csr) option Atomic.t;
  in_cache : (int * csr) option Atomic.t;
}

let create ~names =
  let n = Array.length names in
  let by_name = Hashtbl.create n in
  Array.iteri
    (fun i name ->
      if name = "" then invalid_arg "Graph.create: empty router name";
      if Hashtbl.mem by_name name then
        invalid_arg ("Graph.create: duplicate router name " ^ name);
      Hashtbl.add by_name name i)
    names;
  {
    names = Array.copy names;
    by_name;
    adjacency = Array.init n (fun _ -> Node_tbl.create 4);
    order = Array.make n [];
    all_links_rev = [];
    link_count = 0;
    out_cache = Atomic.make None;
    in_cache = Atomic.make None;
  }

let node_count t = Array.length t.names

let link_count t = t.link_count

let check_node t v fn =
  if v < 0 || v >= node_count t then invalid_arg (fn ^ ": node out of range")

let name t v =
  check_node t v "Graph.name";
  t.names.(v)

let node_of_name t s = Hashtbl.find t.by_name s

let add_link t ~src ~dst ~capacity ~prop_delay =
  check_node t src "Graph.add_link";
  check_node t dst "Graph.add_link";
  if src = dst then invalid_arg "Graph.add_link: self-loop";
  if capacity <= 0.0 then invalid_arg "Graph.add_link: capacity <= 0";
  if prop_delay < 0.0 then invalid_arg "Graph.add_link: negative propagation delay";
  if Node_tbl.mem t.adjacency.(src) dst then
    invalid_arg
      (Printf.sprintf "Graph.add_link: duplicate link %s -> %s" t.names.(src)
         t.names.(dst));
  let l = { src; dst; capacity; prop_delay } in
  Node_tbl.add t.adjacency.(src) dst l;
  t.order.(src) <- l :: t.order.(src);
  t.all_links_rev <- l :: t.all_links_rev;
  t.link_count <- t.link_count + 1

let add_duplex t a b ~capacity ~prop_delay =
  let va = node_of_name t a and vb = node_of_name t b in
  add_link t ~src:va ~dst:vb ~capacity ~prop_delay;
  add_link t ~src:vb ~dst:va ~capacity ~prop_delay

let link t ~src ~dst = Node_tbl.find_opt t.adjacency.(src) dst

let link_exn t ~src ~dst =
  match link t ~src ~dst with
  | Some l -> l
  | None ->
    invalid_arg
      (Printf.sprintf "Graph.link_exn: no link %s -> %s" t.names.(src) t.names.(dst))

let out_links t v =
  check_node t v "Graph.out_links";
  List.rev t.order.(v)

let neighbors t v = List.map (fun l -> l.dst) (out_links t v)

let links t = List.rev t.all_links_rev

let duplex_pairs t =
  List.filter_map
    (fun l -> if l.src < l.dst && link t ~src:l.dst ~dst:l.src <> None then Some (l.src, l.dst) else None)
    (links t)

let fold_links t ~init ~f = List.fold_left f init (links t)

let nodes t = List.init (node_count t) Fun.id

let pack_csr t per_node =
  let n = node_count t in
  let row = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row.(u + 1) <- row.(u) + List.length per_node.(u)
  done;
  let m = row.(n) in
  if m = 0 then { row; links = [||] }
  else begin
    let seed =
      let rec first i = match per_node.(i) with [] -> first (i + 1) | l :: _ -> l in
      first 0
    in
    let arr = Array.make m seed in
    for u = 0 to n - 1 do
      let pos = ref row.(u) in
      List.iter
        (fun l ->
          arr.(!pos) <- l;
          incr pos)
        per_node.(u)
    done;
    { row; links = arr }
  end

let cached cache t build =
  let key = t.link_count in
  match Atomic.get cache with
  | Some (k, view) when k = key -> view
  | Some _ | None ->
    let view = build t in
    Atomic.set cache (Some (key, view));
    view

let out_csr t =
  cached t.out_cache t (fun t ->
      pack_csr t (Array.init (node_count t) (fun u -> out_links t u)))

let in_csr t =
  cached t.in_cache t (fun t ->
      (* Links *into* u, discovered through u's out-links exactly the
         way the reverse Dijkstra historically probed them, so reversed
         traversals see the same edge order as before. *)
      pack_csr t
        (Array.init (node_count t) (fun u ->
             List.filter_map (fun l -> link t ~src:l.dst ~dst:u) (out_links t u))))

let is_symmetric t =
  List.for_all (fun l -> link t ~src:l.dst ~dst:l.src <> None) (links t)

