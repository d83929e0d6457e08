(* Instrumentation layer (Obs), structured stats documents (Statsdoc),
   the 64-bit mask/descent hashes (collision regression for the weak
   FNV-1a fold they replaced) and the shared Horvitz–Thompson weight. *)

open Testutil
module J = Obs.Json
module SD = Netrel.Statsdoc
module Fstate = Bddbase.Fstate

(* ---- Obs cells ---- *)

let t_cells () =
  let now = ref 0. in
  let o = Obs.create ~clock:(fun () -> !now) () in
  Alcotest.(check bool) "enabled" true (Obs.enabled o);
  Obs.incr o "a";
  Obs.add o "a" 4;
  Alcotest.(check int) "counter accumulates" 5 (Obs.counter_value o "a");
  Obs.gauge o "g" 2.5;
  Obs.gauge o "g" 1.5;
  check_close "gauge keeps last" 1.5 (Obs.gauge_value o "g");
  Obs.gauge_max o "gm" 1.;
  Obs.gauge_max o "gm" 3.;
  Obs.gauge_max o "gm" 2.;
  check_close "gauge_max keeps max" 3. (Obs.gauge_value o "gm");
  Obs.text o "t" "x";
  Obs.text o "t" "y";
  Alcotest.(check string) "text keeps last" "y" (Obs.text_value o "t");
  Obs.record_span o "sp" 0.25;
  Obs.record_span o "sp" 0.75;
  check_close "span total" 1.0 (Obs.timer_seconds o "sp");
  Alcotest.(check int) "span count" 2 (Obs.timer_count o "sp");
  let v =
    Obs.time o "tm" (fun () ->
        now := !now +. 2.0;
        42)
  in
  Alcotest.(check int) "time returns result" 42 v;
  check_close "timer total" 2.0 (Obs.timer_seconds o "tm");
  Alcotest.(check int) "timer count" 1 (Obs.timer_count o "tm");
  (* [time] records even when the thunk raises. *)
  (try
     Obs.time o "tm" (fun () ->
         now := !now +. 1.0;
         failwith "boom")
   with Failure _ -> ());
  check_close "timer total after raise" 3.0 (Obs.timer_seconds o "tm");
  Alcotest.(check int) "timer count after raise" 2 (Obs.timer_count o "tm")

let t_sub_prefix () =
  let o = Obs.create ~clock:(fun () -> 0.) () in
  let s = Obs.sub o "phase" in
  Obs.incr s "n";
  Alcotest.(check int) "dotted key via parent" 1 (Obs.counter_value o "phase.n");
  let s2 = Obs.sub s "inner" in
  Obs.incr s2 "n";
  Alcotest.(check int) "nested prefix" 1 (Obs.counter_value o "phase.inner.n");
  (* fresh_like: same clock and enabledness, separate cells and no
     prefix — record under the phase explicitly, merge back in. *)
  let f = Obs.fresh_like s in
  Obs.incr (Obs.sub f "phase") "n";
  Alcotest.(check int) "fresh cells are isolated" 1
    (Obs.counter_value o "phase.n");
  Obs.merge ~into:o f;
  Alcotest.(check int) "merged back into the parent" 2
    (Obs.counter_value o "phase.n")

let t_disabled () =
  let o = Obs.disabled in
  Alcotest.(check bool) "disabled" false (Obs.enabled o);
  Obs.incr o "a";
  Obs.gauge o "g" 1.;
  Obs.text o "t" "x";
  Obs.series o "s" 1.;
  Obs.record_span o "sp" 1.;
  Alcotest.(check int) "counter noop" 0 (Obs.counter_value o "a");
  check_close "gauge noop" 0. (Obs.gauge_value o "g");
  Alcotest.(check string) "text noop" "" (Obs.text_value o "t");
  Alcotest.(check int) "series noop" 0 (Array.length (Obs.series_values o "s"));
  Alcotest.(check int) "span noop" 0 (Obs.timer_count o "sp");
  (* User code still runs under [time] and [sub] stays a no-op view. *)
  Alcotest.(check int) "time passthrough" 7 (Obs.time o "t2" (fun () -> 7));
  Alcotest.(check bool) "sub stays disabled" false
    (Obs.enabled (Obs.sub o "x"))

let t_series () =
  let o = Obs.create ~clock:(fun () -> 0.) () in
  for i = 1 to 10 do
    Obs.series o "s" (float_of_int i)
  done;
  Alcotest.(check (array (float 0.)))
    "exact below cap"
    (Array.init 10 (fun i -> float_of_int (i + 1)))
    (Obs.series_values o "s");
  for i = 11 to 100_000 do
    Obs.series o "s" (float_of_int i)
  done;
  let vs = Obs.series_values o "s" in
  Alcotest.(check bool) "bounded" true
    (Array.length vs <= 512 && Array.length vs >= 128);
  check_close "first point survives decimation" 1. vs.(0);
  let sorted = Array.copy vs in
  Array.sort compare sorted;
  Alcotest.(check (array (float 0.))) "order preserved" sorted vs

let t_merge () =
  let mk () = Obs.create ~clock:(fun () -> 0.) () in
  let a = mk () and b = mk () in
  Obs.incr a "c";
  Obs.add b "c" 2;
  Obs.gauge_max a "g" 1.;
  Obs.gauge_max b "g" 5.;
  Obs.record_span a "t" 1.;
  Obs.record_span b "t" 2.;
  Obs.text a "x" "first";
  Obs.text b "x" "second";
  Obs.series a "s" 1.;
  Obs.series b "s" 2.;
  Obs.incr b "only_b";
  Obs.merge ~into:a b;
  Alcotest.(check int) "counters add" 3 (Obs.counter_value a "c");
  check_close "gauges max" 5. (Obs.gauge_value a "g");
  check_close "timers add" 3. (Obs.timer_seconds a "t");
  Alcotest.(check int) "timer counts add" 2 (Obs.timer_count a "t");
  Alcotest.(check string) "text last wins" "second" (Obs.text_value a "x");
  Alcotest.(check (array (float 0.)))
    "series append" [| 1.; 2. |] (Obs.series_values a "s");
  Alcotest.(check int) "new keys copied" 1 (Obs.counter_value a "only_b")

(* ---- JSON ---- *)

let t_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("a", J.List [ J.Int 1; J.Float 1.5; J.Null; J.Bool true; J.Bool false ]);
        ("s", J.Str "he said \"hi\"\n\t\\ done");
        ("nested", J.Obj [ ("empty_obj", J.Obj []); ("empty_list", J.List []) ]);
        ("big", J.Int max_int);
        ("neg", J.Float (-0.125));
      ]
  in
  let s = J.to_string doc in
  Alcotest.(check bool) "compact reparses equal" true (J.of_string_exn s = doc);
  let sp = J.to_string ~pretty:true doc in
  Alcotest.(check bool) "pretty reparses equal" true (J.of_string_exn sp = doc);
  (* Integral floats keep a decimal point so they reparse as floats,
     not ints. *)
  Alcotest.(check string) "integral float repr" "2.0" (J.to_string (J.Float 2.));
  Alcotest.(check bool) "float stays float" true
    (J.of_string_exn "2.0" = J.Float 2.);
  (* Control characters round-trip through \u escapes. *)
  Alcotest.(check bool) "control char escape" true
    (J.of_string_exn (J.to_string (J.Str "\001\031")) = J.Str "\001\031");
  Alcotest.(check bool) "unicode escape decodes" true
    (J.of_string_exn {|"\u0041\u00e9"|} = J.Str "A\xc3\xa9");
  (* member *)
  Alcotest.(check bool) "member hit" true (J.member "big" doc = Some (J.Int max_int));
  Alcotest.(check bool) "member miss" true (J.member "absent" doc = None)

let t_json_errors () =
  let bad s =
    match J.of_string_exn s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.failf "parser accepted %S" s
  in
  List.iter bad
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}";
      "{\"a\" 1}"; "[1 2]"; "\"\\q\"" ]

let t_json_float_repr () =
  (* Deterministic shortest round-tripping text. *)
  List.iter
    (fun x ->
      let s = J.to_string (J.Float x) in
      match J.of_string_exn s with
      | J.Float y ->
        if not (Float.equal x y) then
          Alcotest.failf "float %h reprinted as %s -> %h" x s y
      | _ -> Alcotest.failf "float %h did not reparse as a float" x)
    [ 0.; 1.5; 0.1; 1. /. 3.; 1e-300; 1e300; Float.min_float; -42.;
      4_503_599_627_370_497. ]

(* The renderer hands %.12g / %.17g to the C primitive that Printf
   calls; [Check.Reference.float_repr] is the Printf formula it
   replaced. They must agree byte for byte on every finite double:
   random bit patterns (any exponent short of inf/NaN), subnormals,
   integers up to 1e22 (small ones take the ".0" suffix, large ones an
   exponent), short decimals and both zeros. *)
let arb_finite_float =
  let open QCheck.Gen in
  let bits64 =
    map2
      (fun hi lo -> Int64.logxor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      int int
  in
  let finite b =
    (* an all-ones exponent loses its lowest bit: 0x7FE, finite *)
    let x = Int64.float_of_bits b in
    if Float.is_finite x then x else Int64.float_of_bits (Int64.logand b 0xFFEF_FFFF_FFFF_FFFFL)
  in
  let subnormal =
    map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) bits64
  in
  let integer =
    map3
      (fun neg e u ->
        let x = Float.round (u *. (10. ** float_of_int e)) in
        if neg then -.x else x)
      bool (int_range 0 22) (float_range 0. 1.)
  in
  let decimal =
    map2 (fun d x -> float_of_string (Printf.sprintf "%.*g" d x)) (int_range 1 17)
      (float_range (-1e6) 1e6)
  in
  QCheck.make ~print:(Printf.sprintf "%h")
    (frequency
       [ (4, map finite bits64); (2, subnormal); (2, integer); (2, decimal);
         (1, oneofl [ 0.; -0. ]) ])

let prop_float_repr_reference =
  QCheck.Test.make ~count:20_000 ~name:"json: floats render as the Printf formula"
    arb_finite_float (fun x -> J.to_string (J.Float x) = Check.Reference.float_repr x)

(* ---- Statsdoc ---- *)

let t_statsdoc () =
  let obs = Obs.create ~clock:(fun () -> 0.) () in
  Obs.incr (Obs.sub obs "preprocess") "bridges";
  Obs.series (Obs.sub obs "construction") "width" 3.;
  let run =
    { SD.command = "test"; method_ = "mc"; graph = "karate";
      terminals = [ 0; 1 ]; seed = 1; jobs = 1; samples = 10; width = 4 }
  in
  let doc =
    SD.build ~obs ~run ~seconds:0.5
      ~result:(SD.result_value ~value:0.5 ~exact:false)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("top-level key " ^ k) true (J.member k doc <> None))
    SD.required_keys;
  (* A phase that recorded nothing renders as an empty object, and the
     whole document survives a round trip through our own parser. *)
  Alcotest.(check bool) "absent phase is {}" true
    (J.member "sampling" doc = Some (J.Obj []));
  Alcotest.(check bool) "document round-trips" true
    (J.of_string_exn (J.to_string ~pretty:true doc) = doc)

(* ---- mask hash: collision regression ---- *)

(* The pre-fix FNV-1a fold, kept verbatim as a fixture. Its 16-bit
   per-edge constants only diffuse bits upward through the 32-bit prime
   multiply, so nearby masks collide in the low bits the HT dedup table
   keys on. *)
let old_mask_hash present m =
  let h = ref 0x811C9DC5 in
  for eid = 0 to m - 1 do
    let bit = if present.(eid) then 0x9E37 else 0x79B9 in
    h := (!h lxor (bit + eid)) * 0x01000193 land max_int
  done;
  !h

(* A concrete colliding pair (found by distinguished-point search over
   62-bit masks): distinct edge masks, identical old digest. *)
let coll_a = 1927001044146766988
let coll_b = 1924801847373463444
let mask_of s = Array.init 62 (fun i -> (s lsr i) land 1 = 1)

let t_mask_hash_collision () =
  let ma = mask_of coll_a and mb = mask_of coll_b in
  Alcotest.(check bool) "masks differ" true (ma <> mb);
  Alcotest.(check int) "old hash collides" (old_mask_hash ma 62)
    (old_mask_hash mb 62);
  Alcotest.(check bool) "new hash separates the pair" true
    (Hash64.mask ma 62 <> Hash64.mask mb 62);
  (* An HT-style dedup table keyed on the new hash counts both
     completions; under the old hash the second was silently dropped. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let h = Hash64.mask m 62 in
      if not (Hashtbl.mem seen h) then Hashtbl.add seen h ())
    [ ma; mb; ma ];
  Alcotest.(check int) "dedup counts both masks" 2 (Hashtbl.length seen)

let t_mask_hash_basic () =
  let r = rng () in
  for _ = 1 to 200 do
    let m = 1 + Prng.int r 200 in
    let a = Array.init m (fun _ -> Prng.bool r) in
    let h = Hash64.mask a m in
    Alcotest.(check int) "deterministic" h (Hash64.mask a m);
    Alcotest.(check bool) "nonnegative" true (h >= 0);
    let i = Prng.int r m in
    let b = Array.copy a in
    b.(i) <- not b.(i);
    Alcotest.(check bool) "single bit flip separates" true
      (h <> Hash64.mask b m)
  done;
  (* The length is folded in, so a prefix never aliases the full mask. *)
  let a = Array.make 64 false in
  Alcotest.(check bool) "length matters" true
    (Hash64.mask a 62 <> Hash64.mask a 63)

(* Same regression at the Fstate layer: the detailed descent hashes the
   completion it samples, one bernoulli per position, so scripting the
   two colliding masks onto a 62-edge path (identity order keeps stream
   position = edge id) reproduces the exact completions the HT descent
   table used to conflate. The reference descent takes the script as
   its [bernoulli]; the production descent draws from a stream, so it
   runs on a path whose edge probabilities are the mask bits (1.0 or
   0.0), which every stream draws as exactly that mask. *)
let t_descent_hash_collision () =
  let n = 63 and terminals = [ 0; 62 ] in
  let path p = graph ~n (List.init 62 (fun i -> (i, i + 1, p i))) in
  let order = Array.init 62 Fun.id in
  let g = path (fun _ -> 0.5) in
  let ctx = Fstate.make g ~order ~terminals in
  let dsu = Dsu.create (2 * n) in
  let descend mask =
    let i = ref 0 in
    let bern _p =
      let b = mask.(!i) in
      incr i;
      b
    in
    let _, h, _ =
      Check.Reference.descend_union ctx g ~terminals ~dsu ~detail:true ~pos:0
        Fstate.initial ~bernoulli:bern
    in
    h
  in
  let ma = mask_of coll_a and mb = mask_of coll_b in
  Alcotest.(check int) "same completion, same hash" (descend ma) (descend ma);
  Alcotest.(check bool) "collision pair separates" true
    (descend ma <> descend mb);
  let sc = Kernel.create () in
  let kernel_hash mask =
    let g = path (fun i -> if mask.(i) then 1.0 else 0.0) in
    let ctx = Fstate.make g ~order ~terminals in
    ignore
      (Fstate.descend_kernel ctx ~scratch:sc ~detail:true ~pos:0 Fstate.initial
         (Prng.create 1));
    Kernel.mask_hash sc
  in
  Alcotest.(check int) "kernel descent hash, mask a" (Hash64.mask ma 62)
    (kernel_hash ma);
  Alcotest.(check int) "kernel descent hash, mask b" (Hash64.mask mb 62)
    (kernel_hash mb);
  Alcotest.(check bool) "kernel descent separates the pair" true
    (kernel_hash ma <> kernel_hash mb)

(* ---- shared Horvitz–Thompson weight ---- *)

(* The two pre-dedupe implementations, kept as fixtures: mcsampling.ml
   worked from plain q with a 1e-280 underflow cutoff, s2bdd.ml from
   log q with a -600 cutoff. *)
let legacy_ht_weight_q q s =
  let s_f = float_of_int s in
  if q <= 0. || q < 1e-280 then 1. /. s_f
  else
    let pi = -.Float.expm1 (s_f *. Float.log1p (-.q)) in
    if pi <= 0. then 1. /. s_f else q /. pi

let legacy_ht_weight_logq ~logq ~n =
  let nf = float_of_int n in
  if logq < -600. then 1. /. nf
  else
    let q = Float.exp logq in
    if q >= 1. then 1.
    else
      let pi = -.Float.expm1 (nf *. Float.log1p (-.q)) in
      if pi <= 0. then 1. /. nf else q /. pi

let t_ht_weight_bounds =
  QCheck.Test.make ~count:2000 ~name:"ht_weight in [1/n, 1]"
    QCheck.(pair (float_range (-800.) 0.) (int_range 1 1_000_000))
    (fun (logq, n) ->
      let w = Mcsampling.ht_weight ~logq ~n in
      let lo = 1. /. float_of_int n in
      w >= lo *. (1. -. 1e-12) && w <= 1. +. 1e-12)

let t_ht_weight_agreement =
  QCheck.Test.make ~count:2000 ~name:"ht_weight agrees with both legacies"
    QCheck.(pair (float_range (-500.) 0.) (int_range 1 100_000))
    (fun (logq, n) ->
      let w = Mcsampling.ht_weight ~logq ~n in
      let wl = legacy_ht_weight_logq ~logq ~n in
      let wq = legacy_ht_weight_q (Float.exp logq) n in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max a b in
      close w wl && close w wq)

let t_ht_weight_edges () =
  check_close "q = 1" 1. (Mcsampling.ht_weight ~logq:0. ~n:100);
  check_close "q above 1 clamps" 1. (Mcsampling.ht_weight ~logq:1. ~n:100);
  check_close "underflow limit is 1/n" 0.01
    (Mcsampling.ht_weight ~logq:(-5000.) ~n:100);
  check_close "n = 1 is weight 1" 1. (Mcsampling.ht_weight ~logq:(-50.) ~n:1);
  (* Continuity across the old -600 cutoff: the exact value and the
     limit agree to ~q there, so no estimator step at the seam. *)
  let a = Mcsampling.ht_weight ~logq:(-599.9) ~n:1000
  and b = Mcsampling.ht_weight ~logq:(-600.1) ~n:1000 in
  Alcotest.(check bool) "continuous at old cutoff" true
    (Float.abs (a -. b) <= 1e-12 *. a)

(* ---- estimator accounting honesty ---- *)

let t_trivial_estimate_honest () =
  let g = path4 0.5 in
  (* k <= 1 terminals: the answer is exactly 1 with no sampling done,
     and the record now says so. *)
  let e = Mcsampling.monte_carlo g ~terminals:[ 0 ] ~samples:100 in
  check_close "trivial value" 1. e.Mcsampling.value;
  Alcotest.(check int) "trivial samples_used" 0 e.Mcsampling.samples_used;
  Alcotest.(check int) "trivial hits" 0 e.Mcsampling.hits;
  Alcotest.(check int) "trivial distinct" 0 e.Mcsampling.distinct;
  check_close "trivial variance" 0. e.Mcsampling.variance_estimate;
  Alcotest.(check int) "trivial chunks" 0
    (Array.length e.Mcsampling.chunk_samples);
  let ht = Mcsampling.horvitz_thompson g ~terminals:[ 0 ] ~samples:100 in
  Alcotest.(check int) "HT trivial samples_used" 0 ht.Mcsampling.samples_used;
  (* distinct is HT-only bookkeeping: 0 for MC, the dedup-table size
     (positive, bounded by the budget) for HT. *)
  let mc = Mcsampling.monte_carlo g ~terminals:[ 0; 3 ] ~samples:50 in
  Alcotest.(check int) "MC distinct is 0" 0 mc.Mcsampling.distinct;
  Alcotest.(check int) "MC samples_used" 50 mc.Mcsampling.samples_used;
  let ht = Mcsampling.horvitz_thompson g ~terminals:[ 0; 3 ] ~samples:50 in
  Alcotest.(check bool) "HT distinct positive and bounded" true
    (ht.Mcsampling.distinct > 0 && ht.Mcsampling.distinct <= 50)

(* ---- instrumented runs record sensible accounts ---- *)

let t_sampler_instrumentation () =
  let g = fig1 () in
  let obs = Obs.create ~clock:(fun () -> 0.) () in
  let e =
    Mcsampling.horvitz_thompson ~obs ~seed:7 g ~terminals:[ 0; 3; 4 ]
      ~samples:500
  in
  Alcotest.(check int) "samples recorded" 500
    (Obs.counter_value obs "sampling.samples");
  Alcotest.(check int) "hits recorded" e.Mcsampling.hits
    (Obs.counter_value obs "sampling.hits");
  Alcotest.(check int) "distinct recorded" e.Mcsampling.distinct
    (Obs.counter_value obs "sampling.distinct");
  Alcotest.(check string) "estimator tagged" "ht"
    (Obs.text_value obs "sampling.estimator");
  Alcotest.(check bool) "chunk spans recorded" true
    (Obs.timer_count obs "sampling.chunk" >= 1);
  (* The account must not change the estimate. *)
  let plain =
    Mcsampling.horvitz_thompson ~seed:7 g ~terminals:[ 0; 3; 4 ] ~samples:500
  in
  check_close "instrumentation is observation-only" plain.Mcsampling.value
    e.Mcsampling.value

let suite =
  ( "obs",
    [
      Alcotest.test_case "obs: cells and readers" `Quick t_cells;
      Alcotest.test_case "obs: sub / fresh_like prefixes" `Quick t_sub_prefix;
      Alcotest.test_case "obs: disabled is a no-op" `Quick t_disabled;
      Alcotest.test_case "obs: series decimation" `Quick t_series;
      Alcotest.test_case "obs: merge" `Quick t_merge;
      Alcotest.test_case "json: round trip" `Quick t_json_roundtrip;
      Alcotest.test_case "json: parse errors" `Quick t_json_errors;
      Alcotest.test_case "json: float repr round-trips" `Quick t_json_float_repr;
      Alcotest.test_case "statsdoc: schema" `Quick t_statsdoc;
      Alcotest.test_case "mask hash: collision regression" `Quick
        t_mask_hash_collision;
      Alcotest.test_case "mask hash: basics" `Quick t_mask_hash_basic;
      Alcotest.test_case "descent hash: collision regression" `Quick
        t_descent_hash_collision;
      Alcotest.test_case "ht_weight: edge cases" `Quick t_ht_weight_edges;
      Alcotest.test_case "samplers: honest trivial accounting" `Quick
        t_trivial_estimate_honest;
      Alcotest.test_case "samplers: instrumented account" `Quick
        t_sampler_instrumentation;
    ]
    @ qtests [ t_ht_weight_bounds; t_ht_weight_agreement; prop_float_repr_reference ] )
