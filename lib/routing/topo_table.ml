type entry = { head : int; tail : int; cost : float }

(* Both arrays have the same length and grow together; ids past it have
   empty rows. A row is an immutable list, so [copy] shares every row. *)
type t = {
  mutable out : (int * float) list array;  (* out.(h): (tail, cost), ascending tail *)
  mutable inn : (int * float) list array;  (* inn.(v): (head, cost), ascending head *)
  mutable size : int;
}

let create () = { out = [||]; inn = [||]; size = 0 }
let copy t = { out = Array.copy t.out; inn = Array.copy t.inn; size = t.size }

let clear t =
  if t.size > 0 then begin
    Array.fill t.out 0 (Array.length t.out) [];
    Array.fill t.inn 0 (Array.length t.inn) [];
    t.size <- 0
  end

let check_id fn v = if v < 0 then invalid_arg ("Topo_table." ^ fn ^ ": negative node id")

let check_link fn ~head ~tail ~cost =
  if not (Float.is_finite cost) || cost < 0.0 then
    invalid_arg ("Topo_table." ^ fn ^ ": cost must be finite and non-negative");
  if head = tail then invalid_arg ("Topo_table." ^ fn ^ ": self-loop");
  check_id fn head;
  check_id fn tail

let row rows v = if v < Array.length rows then rows.(v) else []

let grow t v =
  let len = Array.length t.out in
  if v >= len then begin
    let cap = max (v + 1) (2 * len) in
    let extend a =
      let b = Array.make cap [] in
      Array.blit a 0 b 0 len;
      b
    in
    t.out <- extend t.out;
    t.inn <- extend t.inn
  end

(* Rows are ascending by key, so a lookup stops at the first larger key. *)
let rec row_cost (key : int) = function
  | (k, c) :: rest ->
    if k = key then Some c else if k < key then row_cost key rest else None
  | [] -> None

let rec row_set (key : int) cost = function
  | (k, _) :: rest when k = key -> (key, cost) :: rest
  | ((k, _) as p) :: rest when k < key -> p :: row_set key cost rest
  | row -> (key, cost) :: row

let rec row_remove (key : int) = function
  | (k, _) :: rest when k = key -> rest
  | ((k, _) as p) :: rest when k < key -> p :: row_remove key rest
  | row -> row

let cost t ~head ~tail =
  check_id "cost" head;
  check_id "cost" tail;
  row_cost tail (row t.out head)

let set t ~head ~tail ~cost =
  check_link "set" ~head ~tail ~cost;
  match row_cost tail (row t.out head) with
  | Some old when Float.equal old cost -> ()
  | found ->
    grow t (max head tail);
    t.out.(head) <- row_set tail cost t.out.(head);
    t.inn.(tail) <- row_set head cost t.inn.(tail);
    if Option.is_none found then t.size <- t.size + 1

let remove t ~head ~tail =
  check_id "remove" head;
  check_id "remove" tail;
  match row_cost tail (row t.out head) with
  | None -> ()
  | Some _ ->
    t.out.(head) <- row_remove tail t.out.(head);
    t.inn.(tail) <- row_remove head t.inn.(tail);
    t.size <- t.size - 1

let apply_entry t { head; tail; cost } =
  if Float.is_finite cost then set t ~head ~tail ~cost else remove t ~head ~tail

(* One head's entries, ascending by tail: new and changed links carry
   their new cost, links only in [olds] carry [infinity]. *)
let rec row_diff head olds news =
  match (olds, news) with
  | [], [] -> []
  | (tail, _) :: o, [] -> { head; tail; cost = infinity } :: row_diff head o []
  | [], (tail, cost) :: n -> { head; tail; cost } :: row_diff head [] n
  | (to_, co) :: o, (tn, cn) :: n ->
    if (to_ : int) < tn then { head; tail = to_; cost = infinity } :: row_diff head o news
    else if tn < to_ then { head; tail = tn; cost = cn } :: row_diff head olds n
    else if Float.equal co cn then row_diff head o n
    else { head; tail = tn; cost = cn } :: row_diff head o n

let set_row t ~head fresh =
  check_id "set_row" head;
  (* The last (largest) tail, once the row is checked. *)
  let rec last prev = function
    | [] -> prev
    | (tail, cost) :: rest ->
      check_link "set_row" ~head ~tail ~cost;
      if tail <= prev then invalid_arg "Topo_table.set_row: tails not strictly ascending";
      last tail rest
  in
  let top = last (-1) fresh in
  let old = row t.out head in
  match row_diff head old fresh with
  | [] -> []
  | changes ->
    grow t (if top > head then top else head);
    t.out.(head) <- fresh;
    List.iter
      (fun { tail; cost; _ } ->
        t.inn.(tail) <-
          (if Float.is_finite cost then row_set head cost t.inn.(tail)
           else row_remove head t.inn.(tail)))
      changes;
    t.size <- t.size + List.length fresh - List.length old;
    changes

let out_links t ~head =
  check_id "out_links" head;
  row t.out head

let in_links t ~tail =
  check_id "in_links" tail;
  row t.inn tail

(* Heads descending, each row prepended whole: the result ascends. *)
let entries t =
  let acc = ref [] in
  for head = Array.length t.out - 1 downto 0 do
    acc :=
      List.fold_right (fun (tail, cost) acc -> { head; tail; cost } :: acc) t.out.(head) !acc
  done;
  !acc

let nodes t =
  let acc = ref [] in
  for v = Array.length t.out - 1 downto 0 do
    match (t.out.(v), t.inn.(v)) with [], [] -> () | _ -> acc := v :: !acc
  done;
  !acc

let size t = t.size

let diff ~old_table ~new_table =
  let acc = ref [] in
  for head = max (Array.length old_table.out) (Array.length new_table.out) - 1 downto 0 do
    match row_diff head (row old_table.out head) (row new_table.out head) with
    | [] -> ()
    | changes -> acc := changes @ !acc
  done;
  !acc

let equal a b =
  let same_row =
    List.equal (fun (t1, c1) (t2, c2) -> (t1 : int) = t2 && Float.equal c1 c2)
  in
  a.size = b.size
  &&
  let rec rows_from h =
    h < 0 || (same_row (row a.out h) (row b.out h) && rows_from (h - 1))
  in
  rows_from (max (Array.length a.out) (Array.length b.out) - 1)
