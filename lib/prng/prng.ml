(* xoshiro256** seeded via SplitMix64. The four 64-bit state words live
   in one private 32-byte buffer, read and written with the unboxed
   int64 bytes primitives, so a step keeps every word in a register
   instead of boxing it into a record field. *)

type t = Bytes.t

(* Native-endian and unchecked: the buffer never leaves this module and
   is always 32 bytes, so offsets 0, 8, 16 and 24 are in range. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 s2;
  set64 g 24 s3;
  g

(* SplitMix64 step: used only for seeding and for [split]. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 in
  let s0 = splitmix_next st in
  let s1 = splitmix_next st in
  let s2 = splitmix_next st in
  let s3 = splitmix_next st in
  (* xoshiro requires a non-zero state; SplitMix64 output of any seed is
     astronomically unlikely to be all zero, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_words 1L 2L 3L 4L
  else of_words s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The one xoshiro256** step: advance the state, return the output
   word. Inlined into every draw, so the output stays unboxed unless
   the draw itself returns an [int64]. *)
let[@inline] next g =
  let open Int64 in
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set64 g 0 s0;
  set64 g 8 s1;
  set64 g 16 (logxor s2 t);
  set64 g 24 (rotl s3 45);
  result

(* The top [64 - shift] bits of the next output as a native int;
   [shift >= 2] keeps the value non-negative. *)
let[@inline] next_top g shift = Int64.to_int (Int64.shift_right_logical (next g) shift)

let bits64 g = next g
let split g = of_seed64 (next g)

(* [n] steps of [next] without their outputs. The four words stay in
   locals for the whole loop and are stored back once; stepping
   through the buffer would load and store all four every step. *)
let advance g n =
  if n < 0 then invalid_arg "Prng.advance: n < 0";
  let open Int64 in
  let s0 = ref (get64 g 0) and s1 = ref (get64 g 8) in
  let s2 = ref (get64 g 16) and s3 = ref (get64 g 24) in
  for _ = 1 to n do
    let t = shift_left !s1 17 in
    let x2 = logxor !s2 !s0 in
    let x3 = logxor !s3 !s1 in
    s1 := logxor !s1 x2;
    s0 := logxor !s0 x3;
    s2 := logxor x2 t;
    s3 := rotl x3 45
  done;
  set64 g 0 !s0;
  set64 g 8 !s1;
  set64 g 16 !s2;
  set64 g 24 !s3

(* Top 53 bits -> [0,1). *)
let[@inline] float g = Float.of_int (next_top g 11) *. 0x1.0p-53

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0"
  else if bound = 1 then 0
  else begin
    (* Rejection sampling on the top bits for an unbiased draw. *)
    let bound64 = Int64.of_int bound in
    let limit = Int64.sub (Int64.sub Int64.max_int bound64) 1L in
    let v = ref (-1) in
    while !v < 0 do
      let r = Int64.shift_right_logical (next g) 1 in
      let x = Int64.rem r bound64 in
      if Int64.sub r x <= limit then v := Int64.to_int x
    done;
    !v
  end

let bool g = next_top g 63 = 1
let[@inline] bernoulli g p =
  if p >= 1. then true else if p <= 0. then false else float g < p

(* The probability is read here rather than passed in: a float
   argument of a call from another module is boxed, a float array
   element read inside the callee is not. *)
let bernoulli_at g ps i = bernoulli g ps.(i)
let uniform g lo hi = lo +. ((hi -. lo) *. float g)

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick g arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array"
  else arr.(int g (Array.length arr))

let weighted_index g ws =
  let total = Array.fold_left (fun acc w ->
      if w < 0. || Float.is_nan w then invalid_arg "Prng.weighted_index: negative weight"
      else acc +. w) 0. ws
  in
  if total <= 0. then invalid_arg "Prng.weighted_index: zero total weight";
  let target = float g *. total in
  let n = Array.length ws in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. ws.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  (* Skip any zero-weight suffix that the scan's fallback might hit. *)
  let i = scan 0 0. in
  if ws.(i) > 0. then i
  else
    let rec back j = if ws.(j) > 0. then j else back (j - 1) in
    back i

(* Word-parallel Bernoulli draws: one bit-lane per world, 62 worlds per
   native int (matching Hash64.word_bits, so lane masks pack the same
   way the content hashes do). A lane's uniform variate is read off as
   an infinite binary expansion, one digit per drawn word; comparing it
   against the binary expansion of [p] digit-by-digit decides every
   lane at its first digit that differs from [p]'s. Expected words per
   draw is ~log2(lanes) + 2 regardless of [p] — the undecided mask
   halves per digit — and the comparison is exact (floats are dyadic,
   so the frac-doubling walk below terminates with no quantisation
   bias). *)
module Bitbatch = struct
  let lanes = 62
  let all = (1 lsl lanes) - 1

  (* Top 62 of the 64 generator bits, as a non-negative native int. *)
  let[@inline] word g = next_top g 2

  let[@inline] draw g p =
    if p >= 1. then all
    else if p <= 0. then 0
    else begin
      (* Invariant: lanes in [undecided] have matched every digit of
         [p] so far; [result] holds the verdicts of decided lanes.
         Digit d of p is produced by doubling the remaining fraction;
         a lane whose uniform digit is 0 where p's is 1 decides
         "present" (U < p), the converse decides "absent" (U > p).
         When the fraction hits 0 the remaining digits of p are all 0,
         so every still-undecided lane has U >= p: absent. *)
      let result = ref 0 and undecided = ref all in
      let frac = ref p in
      while !undecided <> 0 && !frac > 0. do
        let r = word g in
        let f2 = !frac *. 2. in
        if f2 >= 1. then begin
          frac := f2 -. 1.;
          result := !result lor (!undecided land lnot r land all);
          undecided := !undecided land r
        end
        else begin
          frac := f2;
          undecided := !undecided land lnot r land all
        end
      done;
      !result
    end

  let draw_at g ps i = draw g ps.(i)

  (* Scalar replay of one lane: runs the identical word-parallel draw
     (consuming the identical stream — word count depends only on [p]
     and the drawn words themselves) and extracts the lane's bit. *)
  let bernoulli_lane g ~lane p =
    if lane < 0 || lane >= lanes then invalid_arg "Prng.Bitbatch.bernoulli_lane";
    (draw g p lsr lane) land 1 = 1

  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
    go 0 x
end

module Alias = struct
  type table = { prob : float array; alias : int array }

  let size t = Array.length t.prob

  let build ws =
    let n = Array.length ws in
    if n = 0 then invalid_arg "Prng.Alias.build: empty weights";
    let total = Array.fold_left (fun acc w ->
        if w < 0. || Float.is_nan w then invalid_arg "Prng.Alias.build: negative weight"
        else acc +. w) 0. ws
    in
    if total <= 0. then invalid_arg "Prng.Alias.build: zero total weight";
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) ws in
    let prob = Array.make n 1. and alias = Array.init n (fun i -> i) in
    let small = Stack.create () and large = Stack.create () in
    Array.iteri (fun i p -> Stack.push i (if p < 1. then small else large)) scaled;
    while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
      let s = Stack.pop small and l = Stack.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
      Stack.push l (if scaled.(l) < 1. then small else large)
    done;
    (* Leftovers are 1.0 up to rounding; the defaults already cover them. *)
    { prob; alias }

  let sample g t =
    let i = int g (Array.length t.prob) in
    if float g < t.prob.(i) then i else t.alias.(i)
end
