(* Float comparison helpers.

   Raw [=]/[<>]/[compare] on floats is forbidden by the repo lint: the
   polymorphic primitives disagree with IEEE semantics on [nan] (and
   [compare] orders it below everything), and exact equality silently
   becomes a correctness bug the moment an expression is re-associated.
   Code should either use [Float.equal] (exact, nan-reflexive — for
   sentinel values like 0.0 or infinity that are assigned, never
   computed) or the epsilon forms below (for anything that went through
   arithmetic). *)

let default_eps = 1e-9

let approx ?(eps = default_eps) a b =
  if Float.equal a b then true (* covers infinities and shared nan payloads *)
  else Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
