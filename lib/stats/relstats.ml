let check_shape exact estimates =
  let q1 = Array.length exact in
  if q1 = 0 || Array.length estimates <> q1 then
    invalid_arg "Relstats: exact and estimates shapes differ";
  Array.iter
    (fun row -> if Array.length row = 0 then invalid_arg "Relstats: empty repetition row")
    estimates

let fold_cells f init exact estimates =
  let acc = ref init and cells = ref 0 in
  Array.iteri
    (fun i row ->
      Array.iter
        (fun est ->
          incr cells;
          acc := f !acc exact.(i) est)
        row)
    estimates;
  (!acc, !cells)

let variance ~exact ~estimates =
  check_shape exact estimates;
  let total, cells =
    fold_cells (fun acc r est -> acc +. ((r -. est) ** 2.)) 0. exact estimates
  in
  total /. float_of_int cells

let error_rate ~exact ~estimates =
  check_shape exact estimates;
  let term r est =
    if r = 0. then if est = 0. then 0. else 1. else Float.abs (r -. est) /. r
  in
  let total, cells = fold_cells (fun acc r est -> acc +. term r est) 0. exact estimates in
  total /. float_of_int cells

let mean xs =
  if Array.length xs = 0 then invalid_arg "Relstats.mean: empty";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Sample (n-1) estimator: the population divisor biased the spread of
   the small bench [repeats] low. A single observation carries no
   spread information, so n <= 1 reports 0. *)
let std_dev xs =
  let n = Array.length xs in
  if n <= 1 then (
    ignore (mean xs) (* keeps the empty-input Invalid_argument *);
    0.)
  else
    let m = mean xs in
    let v =
      Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
      /. float_of_int (n - 1)
    in
    sqrt v

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Relstats.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Relstats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

(* Monotonic seconds via clock_gettime(CLOCK_MONOTONIC) (the bechamel
   C stub) — wall clock (gettimeofday) is subject to NTP steps, which
   made bench timings occasionally negative and corrupted BENCH_*.json.
   The clamp is belt-and-braces: a monotonic clock cannot go backwards,
   but a zero-resolution fake clock can legitimately report 0. *)
let now_monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_monotonic () in
  let x = f () in
  (x, Float.max 0. (now_monotonic () -. t0))

let time_median ?(repeats = 3) f =
  if repeats <= 0 then invalid_arg "Relstats.time_median: repeats <= 0";
  let last = ref None in
  let times =
    Array.init repeats (fun _ ->
        let x, dt = time f in
        last := Some x;
        dt)
  in
  match !last with
  | None -> assert false
  | Some x -> (x, quantile times 0.5)

let format_seconds s =
  if s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.1fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

(* ------------------------------------------------------------------ *)
(* Binomial confidence intervals                                       *)
(* ------------------------------------------------------------------ *)

type interval_method = Wald | Wilson | Agresti_coull

let interval_method_name = function
  | Wald -> "wald"
  | Wilson -> "wilson"
  | Agresti_coull -> "agresti-coull"

let default_z = 1.96

(* Wald degenerates to a zero-width interval at phat in {0, 1} — the
   regime that matters most for reliable graphs — which is why it is
   kept only as the legacy reference. Wilson inverts the score test
   ((phat - p)^2 = z^2 p (1-p) / n), so its bounds are the two roots of
   a quadratic that always brackets phat and stays inside (0, 1) with
   nonzero width for every n >= 1. Agresti–Coull is the simple fallback:
   Wald recentred on the Wilson midpoint with z^2 pseudo-observations
   (its bounds can poke outside [0, 1]; they are clamped here).
   Mathematically every method brackets phat, but Wilson's and
   Agresti–Coull's recentred bounds are rounded results: at 0 or n hits
   they can land one ulp on the wrong side of the estimate (31/31 hits
   gave upper 0.9999999999999999 < 1.0), so the bounds are finally
   clamped around [p] as well. *)
let interval ?(z = default_z) m ~phat ~n =
  if n < 1 then invalid_arg "Relstats.interval: n < 1";
  if not (Float.is_finite z) || z <= 0. then
    invalid_arg "Relstats.interval: z must be finite and positive";
  let p = Float.max 0. (Float.min 1. phat) in
  let nf = float_of_int n in
  let lo, hi =
    match m with
    | Wald ->
      let half = z *. sqrt (p *. (1. -. p) /. nf) in
      (p -. half, p +. half)
    | Wilson ->
      let z2 = z *. z in
      let denom = 1. +. (z2 /. nf) in
      let center = (p +. (z2 /. (2. *. nf))) /. denom in
      let half =
        z /. denom *. sqrt ((p *. (1. -. p) /. nf) +. (z2 /. (4. *. nf *. nf)))
      in
      (center -. half, center +. half)
    | Agresti_coull ->
      let z2 = z *. z in
      let nt = nf +. z2 in
      let pt = ((p *. nf) +. (z2 /. 2.)) /. nt in
      let half = z *. sqrt (pt *. (1. -. pt) /. nt) in
      (pt -. half, pt +. half)
  in
  (Float.max 0. (Float.min p lo), Float.min 1. (Float.max p hi))
