(* The 64-bit state lives in an 8-byte buffer: reading and writing it
   there keeps the int64 unboxed, so a draw allocates nothing beyond its
   result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (bits64 t)

let substream ~seed ~index =
  if index < 0 then invalid_arg "Rng.substream: index < 0";
  (* Mix the index into the seeded state through a second SplitMix64
     round so substreams of one seed are mutually independent and the
     mapping depends only on the (seed, index) pair — never on how many
     draws any other stream has made. *)
  let base = mix (Int64.of_int seed) in
  of_state (mix (Int64.add base (Int64.mul (Int64.of_int (index + 1)) golden_gamma)))

let[@inline] float t =
  (* Use the top 53 bits for a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let uniform t ~lo ~hi =
  if not (lo <= hi) then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection-free for our purposes; modulo bias is negligible for the
     small bounds used in simulations (< 2^32). Mask to 62 bits so the
     value fits OCaml's 63-bit native int without wrapping negative. *)
  let v = Int64.to_int (Int64.logand (bits64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate <= 0";
  let u = 1.0 -. float t in
  -.log u /. rate

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
