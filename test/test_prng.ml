open Testutil

let t_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Prng.bits64 a) (Prng.bits64 b)
  done

let t_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 0 to 63 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check int) "different seeds, different streams" 0 !same

let t_copy () =
  let a = rng () in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copies agree" (Prng.bits64 a) (Prng.bits64 b)

(* [advance g n] must land where [n] draws do, n = 0 included: the
   samplers start a piece mid-chunk with it, so one step off moves
   every world the piece draws. *)
let t_advance () =
  List.iter
    (fun n ->
      let drawn = rng () and skipped = rng () in
      for _ = 1 to n do
        ignore (Prng.bits64 drawn)
      done;
      Prng.advance skipped n;
      for i = 0 to 7 do
        Alcotest.(check int64)
          (Printf.sprintf "n = %d, next draw %d" n i)
          (Prng.bits64 drawn) (Prng.bits64 skipped)
      done)
    [ 0; 1; 2; 3; 17; 1_000; 123_457 ];
  Alcotest.check_raises "n < 0" (Invalid_argument "Prng.advance: n < 0")
    (fun () -> Prng.advance (rng ()) (-1))

let t_split_independent () =
  let a = rng () in
  let b = Prng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let differs = ref false in
  for _ = 0 to 15 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "split differs from parent" true !differs

let t_float_range () =
  let g = rng () in
  for _ = 0 to 9999 do
    let x = Prng.float g in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %.17g" x
  done

let t_float_mean () =
  let g = rng () in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f close to 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let t_int_bounds () =
  let g = rng () in
  for bound = 1 to 20 do
    for _ = 0 to 499 do
      let x = Prng.int g bound in
      if x < 0 || x >= bound then Alcotest.failf "int %d out of [0,%d)" x bound
    done
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int g 0))

let t_int_uniformity () =
  let g = rng () in
  let bound = 10 and n = 100_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let i = Prng.int g bound in
    counts.(i) <- counts.(i) + 1
  done;
  (* Chi-squared with 9 dof: 99.99% quantile ~ 33.7. *)
  let expected = float_of_int n /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.2f < 33.7" chi2) true (chi2 < 33.7)

let t_bernoulli () =
  let g = rng () in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f close to 0.3" rate)
    true
    (Float.abs (rate -. 0.3) < 0.01);
  Alcotest.(check bool) "p=0 never" false (Prng.bernoulli g 0.);
  Alcotest.(check bool) "p=1 always" true (Prng.bernoulli g 1.)

let t_shuffle_permutation () =
  let g = rng () in
  let arr = Array.init 100 (fun i -> i) in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 100 (fun i -> i)) sorted

let t_weighted_index () =
  let g = rng () in
  let ws = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Prng.weighted_index g ws in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  let r0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "weight-1 rate %.3f ~ 0.25" r0) true
    (Float.abs (r0 -. 0.25) < 0.015);
  Alcotest.check_raises "all zero raises"
    (Invalid_argument "Prng.weighted_index: zero total weight") (fun () ->
      ignore (Prng.weighted_index g [| 0.; 0. |]))

let t_alias () =
  let g = rng () in
  let ws = [| 0.1; 0.2; 0.; 0.7 |] in
  let table = Prng.Alias.build ws in
  Alcotest.(check int) "size" 4 (Prng.Alias.size table);
  let counts = Array.make 4 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Prng.Alias.sample g table in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(2);
  Array.iteri
    (fun i w ->
      if w > 0. then
        let rate = float_of_int counts.(i) /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "alias rate[%d] %.4f ~ %.1f" i rate w)
          true
          (Float.abs (rate -. w) < 0.01))
    ws

(* Known answers: every seeded estimate, hash and pin downstream is a
   function of this stream, so any change to the generator's
   representation must reproduce it exactly. One continuous stream from
   [create 42], each value family drawn in turn. *)
let t_known_answers () =
  let g = Prng.create 42 in
  let bits64s g n = List.init n (fun _ -> Prng.bits64 g) in
  Alcotest.(check (list int64))
    "bits64"
    [ 0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L;
      0xECB8AD4703B360A1L; 0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L;
      0xB82154855A65DDB2L; 0xD99A2743EBE60087L ]
    (bits64s g 8);
  Alcotest.(check (list int64))
    "split child"
    [ 0x2022097E6E435AD7L; 0xE0FD5DC3779FA477L; 0x1627540B377866E4L;
      0x5BB83BB090257E50L ]
    (bits64s (Prng.split g) 4);
  (* Exact float comparison: all four are dyadic. *)
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0x1.2aacc2beeebf7p-1; 0x1.5d6a766818207p-1; 0x1.29a76e61cebe2p-2;
      0x1.9a1fdb52600d8p-1 ]
    (List.init 4 (fun _ -> Prng.float g));
  Alcotest.(check (list int))
    "int 10" [ 1; 6; 5; 0; 8; 7; 9; 4 ]
    (List.init 8 (fun _ -> Prng.int g 10));
  Alcotest.(check (list int))
    "Bitbatch.draw 0.3"
    [ 0x2400C3E951068050; 0x111110A02C310901; 0x38020004AF40C07;
      0x1AAC200314121080 ]
    (List.init 4 (fun _ -> Prng.Bitbatch.draw g 0.3));
  Alcotest.(check (list bool))
    "bool" [ true; true; true; true; false; true; false; false ]
    (List.init 8 (fun _ -> Prng.bool g));
  Alcotest.(check (list bool))
    "bernoulli 0.3" [ true; false; false; true; false; false; false; false ]
    (List.init 8 (fun _ -> Prng.bernoulli g 0.3));
  let d = Prng.copy g in
  Alcotest.(check (list int64))
    "original after copy" [ 0xAEDCB86BD40DE374L; 0x52D6A585752FE880L ]
    (bits64s g 2);
  Alcotest.(check (list int64))
    "copy continuation" [ 0xAEDCB86BD40DE374L; 0x52D6A585752FE880L ]
    (bits64s d 2)

let prop_int_in_range =
  QCheck.Test.make ~name:"prng int stays in range" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let x = Prng.int g bound in
      x >= 0 && x < bound)

let prop_uniform_in_range =
  QCheck.Test.make ~name:"prng uniform stays in range" ~count:200
    QCheck.(pair small_int (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (seed, (a, b)) ->
      QCheck.assume (a < b);
      let g = Prng.create seed in
      let x = Prng.uniform g a b in
      x >= a && x < b)

let suite =
  ( "prng",
    [
      Alcotest.test_case "determinism" `Quick t_determinism;
      Alcotest.test_case "known answers" `Quick t_known_answers;
      Alcotest.test_case "seed sensitivity" `Quick t_seed_sensitivity;
      Alcotest.test_case "copy" `Quick t_copy;
      Alcotest.test_case "advance = n draws" `Quick t_advance;
      Alcotest.test_case "split independence" `Quick t_split_independent;
      Alcotest.test_case "float range" `Quick t_float_range;
      Alcotest.test_case "float mean" `Quick t_float_mean;
      Alcotest.test_case "int bounds" `Quick t_int_bounds;
      Alcotest.test_case "int uniformity (chi2)" `Quick t_int_uniformity;
      Alcotest.test_case "bernoulli" `Quick t_bernoulli;
      Alcotest.test_case "shuffle is a permutation" `Quick t_shuffle_permutation;
      Alcotest.test_case "weighted_index" `Quick t_weighted_index;
      Alcotest.test_case "alias table" `Quick t_alias;
    ]
    @ qtests [ prop_int_in_range; prop_uniform_in_range ] )
