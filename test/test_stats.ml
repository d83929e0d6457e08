(* Properties of the binomial interval estimators (lib/stats), plus the
   sample-variance and monotonic-clock fixes that shipped with them.
   The load-bearing property is the 0-hit regression: the legacy Wald
   interval collapses to zero width at phat in {0, 1} — exactly the
   regime of reliable graphs — while Wilson and Agresti-Coull must not. *)

open Testutil
module R = Relstats

let arb_phat_n =
  QCheck.(pair (float_bound_inclusive 1.) (int_range 1 100_000))

let q_bounds =
  QCheck.Test.make ~name:"interval: bounds ordered and clamped into [0,1]"
    ~count:500 arb_phat_n (fun (phat, n) ->
      List.for_all
        (fun m ->
          let lo, hi = R.interval m ~phat ~n in
          0. <= lo && lo <= hi && hi <= 1.)
        [ R.Wald; R.Wilson; R.Agresti_coull ])

(* The edges matter most here: Wilson's bounds are computed, not exact,
   and at 0 or n hits they used to round one ulp past the estimate
   (31/31 hits gave upper 0.9999999999999999 < 1.0). *)
let q_wilson_contains =
  QCheck.Test.make ~name:"wilson: interval contains phat" ~count:500
    QCheck.(
      pair
        (oneof [ always 0.; always 1.; float_bound_inclusive 1. ])
        (int_range 1 100_000))
    (fun (phat, n) ->
      let lo, hi = R.interval R.Wilson ~phat ~n in
      lo <= phat && phat <= hi)

let q_wilson_shrinks =
  QCheck.Test.make ~name:"wilson: width strictly decreasing in n" ~count:300
    arb_phat_n (fun (phat, n) ->
      let width n =
        let lo, hi = R.interval R.Wilson ~phat ~n in
        hi -. lo
      in
      width (4 * n) < width n)

let q_wilson_wald_agree =
  QCheck.Test.make ~name:"wilson: agrees with wald away from the edges"
    ~count:100
    QCheck.(float_range 0.2 0.8)
    (fun phat ->
      let n = 1_000_000 in
      let wl, wh = R.interval R.Wilson ~phat ~n in
      let al, ah = R.interval R.Wald ~phat ~n in
      Float.abs (wl -. al) < 1e-4 && Float.abs (wh -. ah) < 1e-4)

let q_zero_hits_width =
  QCheck.Test.make
    ~name:"wilson/ac: nonzero width at 0 and n hits (wald regression)"
    ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      List.for_all
        (fun m ->
          let lo0, hi0 = R.interval m ~phat:0. ~n in
          let lo1, hi1 = R.interval m ~phat:1. ~n in
          (* The nonzero-width claim is the point; the degenerate bound
             itself is only pinned up to float rounding of the score
             quadratic (z^2/(n+z^2) >= 3.8e-6 for n <= 1e6). *)
          lo0 <= 1e-12 && hi0 >= 1e-7 && hi1 >= 1. -. 1e-12
          && lo1 <= 1. -. 1e-7)
        [ R.Wilson; R.Agresti_coull ])

(* Pin the bug the adaptive driver must never stop on: Wald at 0 hits
   claims a zero-width interval, Wilson reports the exact z^2/(n+z^2). *)
let t_wald_degenerate () =
  let n = 1_000 in
  let lo, hi = R.interval R.Wald ~phat:0. ~n in
  Alcotest.(check (float 0.)) "wald lower" 0. lo;
  Alcotest.(check (float 0.)) "wald upper (degenerate)" 0. hi;
  let z = R.default_z in
  let wlo, whi = R.interval R.Wilson ~phat:0. ~n in
  Alcotest.(check (float 0.)) "wilson lower" 0. wlo;
  check_close "wilson upper = z^2/(n+z^2)"
    (z *. z /. (float_of_int n +. (z *. z)))
    whi

let t_interval_validation () =
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Relstats.interval: n < 1") (fun () ->
      ignore (R.interval R.Wilson ~phat:0.5 ~n:0));
  (* phat is clamped, not rejected: the HT estimator can overshoot 1. *)
  let lo, hi = R.interval R.Wilson ~phat:1.7 ~n:100 in
  let lo1, hi1 = R.interval R.Wilson ~phat:1. ~n:100 in
  Alcotest.(check (float 0.)) "overshoot = clamped phat, lower" lo1 lo;
  Alcotest.(check (float 0.)) "overshoot = clamped phat, upper" hi1 hi;
  Alcotest.(check bool) "upper at the edge" true (hi >= 1. -. 1e-12 && hi <= 1.)

let t_std_dev_sample () =
  (* n-1 divisor: [|1; 3|] has sample variance 2, not population 1. *)
  check_close "two obs" (sqrt 2.) (R.std_dev [| 1.; 3. |]);
  check_close "single obs reports 0" 0. (R.std_dev [| 42. |])

let t_time_monotonic () =
  let t1 = R.now_monotonic () in
  let t2 = R.now_monotonic () in
  Alcotest.(check bool) "clock never steps back" true (t2 >= t1);
  let (), dt = R.time (fun () -> ignore (Sys.opaque_identity (Array.make 64 0))) in
  Alcotest.(check bool) "elapsed non-negative" true (dt >= 0.);
  let (), dm = R.time_median ~repeats:3 (fun () -> ()) in
  Alcotest.(check bool) "median elapsed non-negative" true (dm >= 0.)

let suite =
  ( "stats",
    Alcotest.test_case "interval: wald degenerate vs wilson" `Quick
      t_wald_degenerate
    :: Alcotest.test_case "interval: validation and clamping" `Quick
         t_interval_validation
    :: Alcotest.test_case "std_dev: sample estimator" `Quick t_std_dev_sample
    :: Alcotest.test_case "time: monotonic clock" `Quick t_time_monotonic
    :: qtests
         [
           q_bounds;
           q_wilson_contains;
           q_wilson_shrinks;
           q_wilson_wald_agree;
           q_zero_hits_width;
         ] )
