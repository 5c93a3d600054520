type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined, like [hash2], so that [hash2_int] (one call per dimension of
   every lazy tree-node placement) keeps its int64s unboxed. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] hash2 seed x =
  mix64 (Int64.add (mix64 (Int64.add seed (Int64.of_int x))) golden_gamma)

let hash2_int seed x ~bound =
  if bound <= 0 then invalid_arg "Prng.hash2_int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (hash2 seed x) 2) in
  v mod bound

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
