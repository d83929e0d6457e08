(* Extended-range non-negative reals: value = m * 2^e with m in [0.5, 1)
   (or m = 0).  Invariant maintained by [norm] after every operation. *)

type t = { m : float; e : int }

let zero = { m = 0.; e = 0 }

(* [Float.frexp] of a normal double, read from its bits: the exponent is
   the biased exponent field less 1022, and the fraction keeps the sign
   and significand bits under the exponent field of 0.5. Both are
   computed in registers, where [Float.frexp] allocates a tuple and a
   boxed float. Zero, subnormals, infinities and NaN (field 0 or 0x7ff)
   are left to [Float.frexp]. *)
let[@inline] biased_exponent bits =
  Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff

let[@inline] fraction bits =
  Int64.float_of_bits
    (Int64.logor (Int64.logand bits 0x800F_FFFF_FFFF_FFFFL) 0x3FE0_0000_0000_0000L)

let[@inline] norm m e =
  if m = 0. then zero
  else
    let bits = Int64.bits_of_float m in
    let be = biased_exponent bits in
    if be = 0 || be = 0x7ff then
      let frac, ex = Float.frexp m in
      { m = frac; e = e + ex }
    else { m = fraction bits; e = e + be - 1022 }

let one = norm 1. 0
let half = norm 0.5 0

let of_float x =
  if Float.is_nan x || x < 0. || x = Float.infinity then
    invalid_arg (Printf.sprintf "Xprob.of_float: %g" x)
  else norm x 0

let is_zero x = x.m = 0.

(* Doubles cover binary exponents roughly in [-1074, 1024]. *)
let to_float_approx x =
  if is_zero x then 0.
  else if x.e > 1024 then infinity
  else if x.e < -1080 then 0.
  else Float.ldexp x.m x.e

let to_float_exn x =
  let f = to_float_approx x in
  if f = infinity then invalid_arg "Xprob.to_float_exn: overflow" else f

let mul a b = if is_zero a || is_zero b then zero else norm (a.m *. b.m) (a.e + b.e)

let div a b =
  if is_zero b then raise Division_by_zero
  else if is_zero a then zero
  else norm (a.m /. b.m) (a.e - b.e)

let scale c x =
  if Float.is_nan c || c < 0. || c = Float.infinity then
    invalid_arg (Printf.sprintf "Xprob.scale: %g" c)
  else if c = 0. || is_zero x then zero
  else
    let bits = Int64.bits_of_float c in
    let be = biased_exponent bits in
    if be = 0 then
      let frac, ex = Float.frexp c in
      norm (frac *. x.m) (x.e + ex)
    else norm (fraction bits *. x.m) (x.e + be - 1022)

(* The [scale] fold over a world as one running double [x] and an
   exponent offset [e] (value [x * 2^e]) instead of a normalised pair per
   factor. Rounding commutes with scaling by a power of two while the
   rounded product stays normal, so [x *. c] has the same significand as
   the fold's [fst (frexp c) *. m] whenever it lands at or above 2^-1022.
   Keeping [x] in [2^-900, 1] (or 0) and multiplying straight in only the
   factors in [2^-100, 1] keeps every such product at or above 2^-1000;
   [x] is rescaled by 2^900, exactly, when it falls below 2^-900. Every
   other factor (zero, below 2^-100, above one, or invalid) takes the
   [scale] step itself on the normalised accumulator, which also
   validates it. Once [x] is 0 it stays 0 and only [e] drifts, which the
   final [norm] ignores.

   The factor is selected without a branch on [present i], which
   mispredicts as often as the world's edges are uncertain: with [b] 0.
   or 1., one of [b *. p] and [(1. -. b) *. (1. -. p)] is the factor
   times 1 and the other a signed zero, so their sum is the factor
   exactly, and NaN whenever [p] or [1. -. p] is not finite. *)
let world_prob ps ~n ~present =
  let x = ref 1. and e = ref 0 in
  for i = 0 to n - 1 do
    let p = ps.(i) in
    let b = Float.of_int (Bool.to_int (present i)) in
    let c = (b *. p) +. ((1. -. b) *. (1. -. p)) in
    if c >= 0x1p-100 && c <= 1. then begin
      x := !x *. c;
      if !x < 0x1p-900 then begin
        x := !x *. 0x1p900;
        e := !e - 900
      end
    end
    else begin
      let acc = scale c (norm !x !e) in
      x := acc.m;
      e := acc.e
    end
  done;
  norm !x !e

(* Alignment beyond 54 bits makes the smaller operand vanish entirely. *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else
    let hi, lo = if a.e >= b.e then (a, b) else (b, a) in
    let shift = lo.e - hi.e in
    if shift < -60 then hi else norm (hi.m +. Float.ldexp lo.m shift) hi.e

let compare a b =
  if is_zero a then if is_zero b then 0 else -1
  else if is_zero b then 1
  else if a.e <> b.e then Stdlib.compare a.e b.e
  else Stdlib.compare a.m b.m

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Relative tolerance for deciding that a negative difference is
   cancellation noise rather than a genuinely negative result. *)
let cancellation_ulps = 1e-9

let sub a b =
  if is_zero b then a
  else
    let c = compare a b in
    if c = 0 then zero
    else if c > 0 then
      let shift = b.e - a.e in
      if shift < -60 then a else norm (a.m -. Float.ldexp b.m shift) a.e
    else
      (* a < b: legitimate only within rounding noise of zero. *)
      let shift = a.e - b.e in
      let diff = b.m -. (if shift < -60 then 0. else Float.ldexp a.m shift) in
      if diff <= cancellation_ulps *. b.m then zero
      else invalid_arg "Xprob.sub: negative result"

let complement p =
  if is_zero p then one
  else if p.e > 0 || (p.e = 0 && p.m > 1.) then
    if p.e = 1 && p.m <= 0.5 +. cancellation_ulps then zero
    else invalid_arg "Xprob.complement: argument exceeds one"
  else sub one p

let rec pow_int x n =
  if n < 0 then invalid_arg "Xprob.pow_int: negative exponent"
  else if n = 0 then one
  else if n = 1 then x
  else
    let h = pow_int x (n / 2) in
    let h2 = mul h h in
    if n mod 2 = 0 then h2 else mul h2 x

let log2 x = if is_zero x then neg_infinity else Float.log2 x.m +. float_of_int x.e
let log10 x = log2 x *. 0.301029995663981195
let sum xs = List.fold_left add zero xs

let mantissa_exponent x = (x.m, x.e)

let to_string x =
  if is_zero x then "0"
  else
    let l10 = log10 x in
    let e10 = int_of_float (Float.floor l10) in
    (* Mantissa in [1, 10): recover it from the residual log to avoid
       overflow when |e10| is huge. *)
    let m10 = Float.exp ((l10 -. float_of_int e10) *. Float.log 10.) in
    let m10, e10 = if m10 >= 10. then (m10 /. 10., e10 + 1) else (m10, e10) in
    if e10 >= -4 && e10 <= 15 then
      Printf.sprintf "%.10g" (m10 *. (10. ** float_of_int e10))
    else Printf.sprintf "%.6ge%d" m10 e10

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* Comparison operators on [t]; defined last so that the integer
   comparisons above keep their Stdlib meaning. *)
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
