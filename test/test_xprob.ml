open Testutil

let t_roundtrip () =
  List.iter
    (fun x ->
      check_close (Printf.sprintf "roundtrip %g" x) x
        (Xprob.to_float_exn (Xprob.of_float x)))
    [ 0.; 1.; 0.5; 0.7; 1e-300; 1e300; 3.141592653589793; 4.9e-324 ]

let t_of_float_rejects () =
  List.iter
    (fun x ->
      Alcotest.check_raises
        (Printf.sprintf "of_float %g rejected" x)
        (Invalid_argument (Printf.sprintf "Xprob.of_float: %g" x))
        (fun () -> ignore (Xprob.of_float x)))
    [ -1.; -1e-300; Float.infinity ]

let t_mul_underflow () =
  (* 0.5^2000 underflows a double but must stay exact here. *)
  let x = Xprob.pow_int Xprob.half 2000 in
  check_close "log2 of 0.5^2000" (-2000.) (Xprob.log2 x);
  Alcotest.(check bool) "not zero" false (Xprob.is_zero x);
  check_close "to_float_approx underflows to 0" 0. (Xprob.to_float_approx x)

let t_mul_matches_float () =
  let a = Xprob.of_float 0.3 and b = Xprob.of_float 0.7 in
  check_close "0.3*0.7" (0.3 *. 0.7) (Xprob.to_float_exn (Xprob.mul a b))

let t_add_sub () =
  let a = Xprob.of_float 0.25 and b = Xprob.of_float 0.5 in
  check_close "add" 0.75 (Xprob.to_float_exn (Xprob.add a b));
  check_close "sub" 0.25 (Xprob.to_float_exn (Xprob.sub b a));
  Alcotest.(check bool) "sub to zero" true Xprob.(is_zero (sub b b))

let t_sub_negative_raises () =
  let a = Xprob.of_float 0.25 and b = Xprob.of_float 0.5 in
  Alcotest.check_raises "negative sub" (Invalid_argument "Xprob.sub: negative result")
    (fun () -> ignore (Xprob.sub a b))

let t_sub_cancellation_noise () =
  (* b slightly above a within relative 1e-12: clamps to zero. *)
  let a = Xprob.of_float 1.0 in
  let b = Xprob.add a (Xprob.of_float 1e-13) in
  Alcotest.(check bool) "clamped" true (Xprob.is_zero (Xprob.sub a b))

let t_add_disparate_magnitudes () =
  let tiny = Xprob.pow_int Xprob.half 500 in
  let s = Xprob.add Xprob.one tiny in
  check_close "1 + 2^-500 = 1" 1.0 (Xprob.to_float_exn s);
  (* Symmetric order. *)
  let s' = Xprob.add tiny Xprob.one in
  Alcotest.(check bool) "commutative" true (Xprob.equal s s')

let t_complement () =
  check_close "1-0.3" 0.7 (Xprob.to_float_exn (Xprob.complement (Xprob.of_float 0.3)));
  Alcotest.(check bool) "1-1=0" true (Xprob.is_zero (Xprob.complement Xprob.one));
  Alcotest.(check bool) "1-0=1" true (Xprob.equal Xprob.one (Xprob.complement Xprob.zero));
  Alcotest.check_raises "complement of >1"
    (Invalid_argument "Xprob.complement: argument exceeds one") (fun () ->
      ignore (Xprob.complement (Xprob.of_float 1.5)))

let t_div () =
  let a = Xprob.of_float 0.21 and b = Xprob.of_float 0.7 in
  check_close "0.21/0.7" 0.3 (Xprob.to_float_exn (Xprob.div a b));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Xprob.div a Xprob.zero))

let t_compare () =
  let xs = [ 0.; 1e-30; 0.1; 0.5; 0.9999; 1.; 2.5; 1e30 ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check int)
            (Printf.sprintf "compare %g %g" x y)
            (Float.compare x y)
            (Xprob.compare (Xprob.of_float x) (Xprob.of_float y)))
        xs)
    xs

let t_sum () =
  let xs = List.init 100 (fun i -> Xprob.of_float (float_of_int i)) in
  check_close "sum 0..99" 4950. (Xprob.to_float_exn (Xprob.sum xs))

let t_pow_int () =
  check_close "0.7^10" (0.7 ** 10.) (Xprob.to_float_exn (Xprob.pow_int (Xprob.of_float 0.7) 10));
  Alcotest.(check bool) "x^0 = 1" true
    (Xprob.equal Xprob.one (Xprob.pow_int (Xprob.of_float 0.3) 0));
  Alcotest.(check bool) "0^5 = 0" true (Xprob.is_zero (Xprob.pow_int Xprob.zero 5))

let t_log10 () =
  check_close ~eps:1e-12 "log10 1e-20" (-20.) (Xprob.log10 (Xprob.of_float 1e-20));
  let tiny = Xprob.pow_int (Xprob.of_float 0.1) 100_000 in
  check_close ~eps:1e-6 "log10 0.1^1e5" (-100_000.) (Xprob.log10 tiny)

let t_to_string () =
  Alcotest.(check string) "zero" "0" (Xprob.to_string Xprob.zero);
  let s = Xprob.to_string (Xprob.pow_int (Xprob.of_float 0.1) 5000) in
  Alcotest.(check bool) ("exponent notation: " ^ s) true
    (String.length s > 2 && String.contains s 'e')

let t_mantissa_exponent () =
  let m, e = Xprob.mantissa_exponent (Xprob.of_float 0.75) in
  check_close "mantissa" 0.75 m;
  Alcotest.(check int) "exponent" 0 e;
  Alcotest.(check bool) "normalised" true (m >= 0.5 && m < 1.)

(* Property tests *)

let pos_float = QCheck.Gen.map (fun f -> Float.abs f +. 1e-310) QCheck.Gen.pfloat

let arb_pair =
  QCheck.make ~print:(fun (a, b) -> Printf.sprintf "(%g, %g)" a b)
    QCheck.Gen.(pair pos_float pos_float)

let prop_mul_matches_float =
  QCheck.Test.make ~name:"xprob mul matches float where representable" ~count:500
    arb_pair (fun (a, b) ->
      let prod = a *. b in
      QCheck.assume (Float.is_finite prod && prod > 1e-300);
      let x = Xprob.to_float_exn (Xprob.mul (Xprob.of_float a) (Xprob.of_float b)) in
      Float.abs (x -. prod) <= 1e-12 *. prod)

let prop_add_matches_float =
  QCheck.Test.make ~name:"xprob add matches float" ~count:500 arb_pair
    (fun (a, b) ->
      let s = a +. b in
      QCheck.assume (Float.is_finite s);
      let x = Xprob.to_float_exn (Xprob.add (Xprob.of_float a) (Xprob.of_float b)) in
      Float.abs (x -. s) <= 1e-12 *. s)

let prop_order_embedding =
  QCheck.Test.make ~name:"xprob compare embeds float order" ~count:500 arb_pair
    (fun (a, b) ->
      Xprob.compare (Xprob.of_float a) (Xprob.of_float b) = Float.compare a b)

let prop_complement_involutive =
  QCheck.Test.make ~name:"complement involutive on [0,1]" ~count:500
    QCheck.(float_bound_inclusive 1.0)
    (fun p ->
      let x = Xprob.of_float p in
      let y = Xprob.complement (Xprob.complement x) in
      Float.abs (Xprob.to_float_exn y -. p) <= 1e-9)

(* [world_prob] against the left fold of [scale] it replaces: equal bit
   for bit, mantissas compared as raw float bits. The special values
   cover zero, one, subnormals (the [Float.frexp] fallback), the
   smallest normal and the largest double below one. *)
let special_probs =
  [ 0.; 1.; 4.9e-324; 1e-310; Float.min_float; 1. -. 0x1p-53; 0.5; 0.3 ]

let scale_fold ps ~n present =
  let acc = ref Xprob.one in
  for i = 0 to n - 1 do
    acc := Xprob.scale (if present.(i) then ps.(i) else 1. -. ps.(i)) !acc
  done;
  !acc

let same_bits a b =
  let ma, ea = Xprob.mantissa_exponent a and mb, eb = Xprob.mantissa_exponent b in
  Int64.equal (Int64.bits_of_float ma) (Int64.bits_of_float mb) && ea = eb

let world_prob_agrees ps present =
  let n = Array.length ps in
  same_bits
    (Xprob.world_prob ps ~n ~present:(fun i -> present.(i)))
    (scale_fold ps ~n present)

let t_world_prob_specials () =
  let specials = Array.of_list special_probs in
  let k = Array.length specials in
  (* Every special value present and absent, then again after a run of
     subnormal factors deep below the double range. *)
  let ps =
    Array.concat [ specials; specials; Array.make 400 1e-310; specials ]
  in
  let present = Array.mapi (fun i _ -> i < k || (i >= 2 * k && i mod 2 = 0)) ps in
  Alcotest.(check bool) "specials" true (world_prob_agrees ps present);
  let no_zero = Array.map (fun p -> if p = 0. || p = 1. then 0.5 else p) ps in
  Alcotest.(check bool) "specials without zero factors" true
    (world_prob_agrees no_zero present);
  let _, e =
    Xprob.mantissa_exponent
      (Xprob.world_prob no_zero ~n:(Array.length ps) ~present:(fun i -> present.(i)))
  in
  Alcotest.(check bool) "far below the double range" true (e < -100_000);
  Alcotest.(check bool) "empty world is one" true
    (same_bits Xprob.one (Xprob.world_prob [||] ~n:0 ~present:(fun _ -> true)));
  Alcotest.(check bool) "only the first n positions" true
    (same_bits (Xprob.of_float 0.25)
       (Xprob.world_prob [| 0.5; 0.5; Float.nan |] ~n:2 ~present:(fun _ -> true)))

let t_world_prob_rejects () =
  let raises what ps present =
    match Xprob.world_prob ps ~n:(Array.length ps) ~present with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "NaN" [| 0.5; Float.nan |] (fun _ -> true);
  raises "infinite" [| Float.infinity |] (fun _ -> true);
  raises "negative complement" [| 1.5 |] (fun _ -> false);
  (* Like [scale], a zero accumulator still checks later factors. *)
  raises "NaN after a zero factor" [| 0.; Float.nan |] (fun _ -> true)

(* Long worlds leave the double range through normal factors many times
   over, as drawn worlds of a large graph do: uniform probabilities and
   log-uniform ones down to 1e-30, with rare special values and factors
   on both sides of the fold's split points, 2^-100 and 1 (above one
   only for present positions, where such a probability is still a
   valid factor). The rare factors are rare because each renormalises
   the accumulator: the product must also fall through the whole double
   range between them. No factor is zero, which would zero the product
   and hide every later step. *)
let gen_long_world =
  QCheck.Gen.(
    let log_uniform ~from ~down_to =
      map (fun u -> 10. ** (from +. ((down_to -. from) *. u))) (float_bound_inclusive 1.)
    in
    let split =
      [ 0x1p-100; Float.pred 0x1p-100; Float.succ 0x1p-100; 1.; Float.pred 1. ]
    in
    let nonzero (p, present) = (p, if p = 0. then false else present || p = 1.) in
    let entry =
      frequency
        [ (1000, pair (float_bound_inclusive 1.) bool);
          (200, pair (log_uniform ~from:0. ~down_to:(-30.)) bool);
          (2, pair (log_uniform ~from:(-31.) ~down_to:(-42.)) bool);
          (1, pair (oneofl split) bool);
          (1, pair (oneofl special_probs) bool);
          (1, map (fun p -> (p, true)) (oneofl [ Float.succ 1.; 1.5 ])) ]
    in
    int_range 500 5_000 >>= fun n -> list_repeat n (map nonzero entry))

let arb_world =
  let gen_prob =
    QCheck.Gen.(
      frequency [ (1, oneofl special_probs); (3, float_bound_inclusive 1.) ])
  in
  QCheck.make
    ~print:(fun ps ->
      String.concat "; "
        (List.map (fun (p, b) -> Printf.sprintf "(%h, %b)" p b) ps))
    QCheck.Gen.(
      frequency
        [ (1, list_size (int_bound 80) (pair gen_prob bool)); (1, gen_long_world) ])

let prop_world_prob_is_scale_fold =
  QCheck.Test.make ~name:"world_prob = left fold of scale, bit for bit"
    ~count:1000 arb_world (fun world ->
      let ps = Array.of_list (List.map fst world) in
      world_prob_agrees ps (Array.of_list (List.map snd world)))

(* [scale], [mul] and [add] against the [Float.frexp] formulas they
   normalise with, on [(mantissa, exponent)] pairs: equal bit for bit.
   Operands span zero, subnormals, normals near both ends of the double
   range and values far outside it; factors include subnormal ones,
   which take the [Float.frexp] path. *)
let frexp_norm m e =
  if m = 0. then (0., 0)
  else
    let frac, ex = Float.frexp m in
    (frac, e + ex)

let frexp_scale c (m, e) =
  if c = 0. || m = 0. then (0., 0)
  else
    let frac, ex = Float.frexp c in
    frexp_norm (frac *. m) (e + ex)

let frexp_mul (ma, ea) (mb, eb) =
  if ma = 0. || mb = 0. then (0., 0) else frexp_norm (ma *. mb) (ea + eb)

let frexp_add ((ma, ea) as a) ((mb, eb) as b) =
  if ma = 0. then b
  else if mb = 0. then a
  else
    let (mh, eh), (ml, el) = if ea >= eb then (a, b) else (b, a) in
    let shift = el - eh in
    if shift < -60 then (mh, eh) else frexp_norm (mh +. Float.ldexp ml shift) eh

let same_pair (m, e) x =
  let mx, ex = Xprob.mantissa_exponent x in
  Int64.equal (Int64.bits_of_float m) (Int64.bits_of_float mx) && e = ex

let arb_operands =
  let gen_float =
    QCheck.Gen.(
      frequency
        [ (1, oneofl (special_probs @ [ 1e300; Float.max_float; 2. ]));
          (3, float_bound_inclusive 1.);
          (1, map (fun u -> 10. ** (-320. *. u)) (float_bound_inclusive 1.)) ])
  in
  (* A value outside the double range: [x * 2^shift]. *)
  let gen_x =
    QCheck.Gen.(
      map2
        (fun f shift -> Xprob.mul (Xprob.of_float f) (Xprob.pow_int Xprob.half shift))
        gen_float
        (frequency [ (3, return 0); (1, int_bound 5_000) ]))
  in
  QCheck.make
    ~print:(fun (c, a, b) ->
      Printf.sprintf "(%h, %s, %s)" c (Xprob.to_string a) (Xprob.to_string b))
    QCheck.Gen.(triple gen_float gen_x gen_x)

let prop_ops_match_frexp =
  QCheck.Test.make ~name:"scale, mul and add = the Float.frexp formulas, bit for bit"
    ~count:2000 arb_operands (fun (c, a, b) ->
      let pa = Xprob.mantissa_exponent a and pb = Xprob.mantissa_exponent b in
      same_pair (frexp_scale c pa) (Xprob.scale c a)
      && same_pair (frexp_mul pa pb) (Xprob.mul a b)
      && same_pair (frexp_add pa pb) (Xprob.add a b)
      && same_pair (frexp_norm c 0) (Xprob.of_float c))

let suite =
  ( "xprob",
    [
      Alcotest.test_case "roundtrip" `Quick t_roundtrip;
      Alcotest.test_case "of_float rejects bad input" `Quick t_of_float_rejects;
      Alcotest.test_case "mul survives underflow" `Quick t_mul_underflow;
      Alcotest.test_case "mul matches float" `Quick t_mul_matches_float;
      Alcotest.test_case "add/sub" `Quick t_add_sub;
      Alcotest.test_case "sub negative raises" `Quick t_sub_negative_raises;
      Alcotest.test_case "sub clamps cancellation noise" `Quick t_sub_cancellation_noise;
      Alcotest.test_case "add disparate magnitudes" `Quick t_add_disparate_magnitudes;
      Alcotest.test_case "complement" `Quick t_complement;
      Alcotest.test_case "div" `Quick t_div;
      Alcotest.test_case "compare embeds float order" `Quick t_compare;
      Alcotest.test_case "sum" `Quick t_sum;
      Alcotest.test_case "pow_int" `Quick t_pow_int;
      Alcotest.test_case "log10 deep underflow" `Quick t_log10;
      Alcotest.test_case "to_string" `Quick t_to_string;
      Alcotest.test_case "mantissa_exponent" `Quick t_mantissa_exponent;
      Alcotest.test_case "world_prob special factors" `Quick t_world_prob_specials;
      Alcotest.test_case "world_prob rejects bad factors" `Quick t_world_prob_rejects;
    ]
    @ qtests
        [
          prop_mul_matches_float;
          prop_add_matches_float;
          prop_order_embedding;
          prop_complement_involutive;
          prop_world_prob_is_scale_fold;
          prop_ops_match_frexp;
        ] )
