(* Known answers of the S2BDD entry points and of the exact BDD, which
   step the same frontier machine and merge through the same key
   table. Every result field is pinned, floats by their bits and
   extended-range masses by mantissa bits and exponent, so any change
   to the layer loop that moves the expansion order, the deletion
   permutation, the order in which deleted nodes are consumed (which
   fixes each stratum's split stream) or a single float operation
   shows up here. For [prepare] the strata are pinned in consumption
   order: the first few by descent position and mass bits, all of them
   through an MD5 of those lines, and the first descent of each of the
   first few through its hit count. *)

open Testutil
module S = Netrel.S2bdd
module R = Netrel.Reliability
module D = Workload.Datasets

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let xbits x =
  let m, e = Xprob.mantissa_exponent x in
  Printf.sprintf "%Lx*2^%d" (Int64.bits_of_float m) e

let result_lines (r : S.result) =
  [
    "value " ^ bits r.S.value;
    "lower " ^ bits r.S.lower;
    "upper " ^ bits r.S.upper;
    "pc " ^ xbits r.S.pc;
    "pd " ^ xbits r.S.pd;
    "exact " ^ string_of_bool r.S.exact;
    Printf.sprintf "s %d -> %d" r.S.s_given r.S.s_reduced;
    Printf.sprintf "drawn %d sampled %d deleted %d" r.S.samples_drawn
      r.S.sampled_nodes r.S.deleted_nodes;
    Printf.sprintf "layers %d max_width %d peak_words %d" r.S.layers_built
      r.S.max_width r.S.peak_state_words;
    Printf.sprintf "aborted %b stop %s" r.S.aborted (S.stop_reason_name r.S.stop);
  ]

let shown_strata = 4

let prepared_lines = function
  | S.Exact r -> "exact" :: result_lines r
  | S.Sampling p ->
    let lo, hi = S.plan_bounds p in
    let k = S.n_strata p in
    let line i = Printf.sprintf "%d %s" (S.stratum_pos p i) (bits (S.stratum_mass p i)) in
    let all = String.concat "\n" (List.init k line) in
    let first = List.init (min k shown_strata) (fun i -> "stratum " ^ line i) in
    let hits =
      List.init (min k shown_strata) (fun i ->
          S.draw_stratum p i ~n:1;
          Printf.sprintf "hits %d" (S.stratum_hits p i))
    in
    [
      "sampling";
      "bounds " ^ bits lo ^ " " ^ bits hi;
      Printf.sprintf "strata %d md5 %s" k (Digest.to_hex (Digest.string all));
    ]
    @ first @ hits

let report_lines (r : R.report) =
  [
    "value " ^ bits r.R.value;
    "lower " ^ bits r.R.lower;
    "upper " ^ bits r.R.upper;
    "exact " ^ string_of_bool r.R.exact;
    Printf.sprintf "s %d -> %d drawn %d" r.R.s_given r.R.s_reduced r.R.samples_drawn;
  ]
  @ List.concat_map (fun sr -> "sub" :: result_lines sr) r.R.subresults

let exact_lines = function
  | Error (`Node_budget_exceeded n) -> [ Printf.sprintf "budget %d" n ]
  | Ok (r, (st : Bddbase.Exact.stats)) ->
    [
      "r " ^ xbits r;
      "pc " ^ xbits st.Bddbase.Exact.pc;
      "pd " ^ xbits st.Bddbase.Exact.pd;
      Printf.sprintf "layers %d nodes %d max %d" st.Bddbase.Exact.layers
        st.Bddbase.Exact.total_nodes st.Bddbase.Exact.max_layer_nodes;
    ]

(* The four S2BDD entry points under one config. *)
let s2bdd_lines ?(heuristic = S.Paper_heuristic) ?(ht = true) ?(merge_flags = true)
    ?(eager = true) ~width g ~terminals =
  let config = { S.default_config with S.width; S.heuristic; S.merge_flags; S.eager } in
  let est estimator = S.estimate ~config:{ config with S.estimator } g ~terminals in
  ("mc" :: result_lines (est S.Monte_carlo))
  @ (if ht then "ht" :: result_lines (est S.Horvitz_thompson) else [])
  @ ("prepare" :: prepared_lines (S.prepare ~config g ~terminals))
  @ ("bounds" :: result_lines (S.bounds ~config g ~terminals))

(* Preferential attachment leaves every edge at p = 0.5, so many nodes
   of a saturated layer tie on priority and the deletion permutation is
   whatever the sort makes of the table's iteration order. *)
let pa_graph () =
  fst (Workload.Generators.preferential_attachment ~seed:3 ~n:1_000 ~edges_per_vertex:2)

let karate () = (D.karate ~seed:1 ()).D.graph
let dblp1_terminals = [ 2358; 193; 2271; 2247; 133 ]

let cases =
  [
    ("karate w = 8", fun () -> s2bdd_lines ~width:8 (karate ()) ~terminals:[ 0; 33 ]);
    ("karate w = 64", fun () -> s2bdd_lines ~width:64 (karate ()) ~terminals:[ 0; 33 ]);
    ( "DBLP1 w = 1,000",
      fun () ->
        s2bdd_lines ~width:1_000 (D.dblp1 ~seed:1 ()).D.graph
          ~terminals:dblp1_terminals );
    ( "preferential attachment, p = 0.5, w = 64",
      fun () -> s2bdd_lines ~width:64 (pa_graph ()) ~terminals:[ 0; 500; 999 ] );
    ( "karate random deletion w = 8",
      fun () ->
        s2bdd_lines ~heuristic:S.Random_deletion ~ht:false ~width:8 (karate ())
          ~terminals:[ 0; 33 ] );
    (* Terminal seed 4 leaves two subproblems, seed 5 one that draws
       descents. *)
    ( "Reliability.estimate NYC k = 5 w = 100",
      fun () ->
        let g = (D.nyc ()).D.graph in
        List.concat_map
          (fun seed ->
            let terminals = Workload.Generators.random_terminals ~seed g ~k:5 in
            report_lines
              (R.estimate ~config:{ S.default_config with S.width = 100 } g ~terminals))
          [ 4; 5 ] );
    ( "exact fig1",
      fun () ->
        exact_lines (Bddbase.Exact.reliability (fig1 ()) ~terminals:[ 0; 4 ])
        @ exact_lines
            (Bddbase.Exact.reliability ~eager:true (fig1 ()) ~terminals:[ 0; 4 ]) );
    ( "exact karate",
      fun () ->
        exact_lines (Bddbase.Exact.reliability (karate ()) ~terminals:[ 0; 33 ])
        @ exact_lines
            (Bddbase.Exact.reliability ~eager:true (karate ()) ~terminals:[ 0; 33 ]) );
  ]

let expected =
  [
    ( "karate w = 8",
      {|mc
value 3feff76d50c273c4
lower 3f94ca6eb838fc10
upper 3ff0000000000000
pc 3fe4ca6eb838fc10*2^-5
pd 0*2^0
exact false
s 10000 -> 9796
drawn 9793 sampled 137 deleted 175
layers 28 max_width 16 peak_words 384
aborted true stop converged
ht
value 3feff76d50c3562c
lower 3f94ca6eb838fc10
upper 3ff0000000000000
pc 3fe4ca6eb838fc10*2^-5
pd 0*2^0
exact false
s 10000 -> 9796
drawn 9793 sampled 137 deleted 175
layers 28 max_width 16 peak_words 384
aborted true stop converged
prepare
sampling
bounds 3f94ca6eb838fc10 3ff0000000000000
strata 183 md5 10db72f60c055a2ba11b91193562ceb3
stratum 4 3faba977a9e25c07
stratum 4 3fa97d506e8aefeb
stratum 4 3fa4854ffc25899a
stratum 4 3fa2e8bc691b34cb
hits 1
hits 1
hits 1
hits 1
bounds
value 3f94ca6eb838fc10
lower 3f94ca6eb838fc10
upper 3ff0000000000000
pc 3fe4ca6eb838fc10*2^-5
pd 0*2^0
exact false
s 10000 -> 9796
drawn 0 sampled 0 deleted 175
layers 28 max_width 16 peak_words 384
aborted true stop converged|} );
    ( "karate w = 64",
      {|mc
value 3feffaf3649605c2
lower 3fbf4be93099644b
upper 3ff0000000000000
pc 3fef4be93099644b*2^-3
pd 0*2^0
exact false
s 10000 -> 8777
drawn 8665 sampled 895 deleted 1649
layers 44 max_width 128 peak_words 3050
aborted true stop converged
ht
value 3feffaf364969f4c
lower 3fbf4be93099644b
upper 3ff0000000000000
pc 3fef4be93099644b*2^-3
pd 0*2^0
exact false
s 10000 -> 8777
drawn 8665 sampled 895 deleted 1649
layers 44 max_width 128 peak_words 3050
aborted true stop converged
prepare
sampling
bounds 3fbf4be93099644b 3ff0000000000000
strata 1713 md5 439485d6ca04e7460ff1b6316403cd52
stratum 7 3f62969536c7352b
stratum 7 3f62162fa418feaf
stratum 7 3f61e016e83ee15a
stratum 7 3f61c7aa075eedc7
hits 1
hits 1
hits 1
hits 1
bounds
value 3fbf4be93099644b
lower 3fbf4be93099644b
upper 3ff0000000000000
pc 3fef4be93099644b*2^-3
pd 0*2^0
exact false
s 10000 -> 8777
drawn 0 sampled 0 deleted 1649
layers 44 max_width 128 peak_words 3050
aborted true stop converged|} );
    ( "DBLP1 w = 1,000",
      {|mc
value 3fc096ba9eab187b
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 626 sampled 626 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged
ht
value 3fc096ba9eab187b
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 626 sampled 626 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged
prepare
sampling
bounds 0 3fcf07237ff6006c
strata 28224 md5 62d793d4bd33f68c66d7b39fe322dcca
stratum 11 3f0105416e1dc9aa
stratum 11 3f0105416e1dc9aa
stratum 11 3f0105416e1dc9a9
stratum 11 3f0105416e1dc9aa
hits 1
hits 0
hits 0
hits 1
bounds
value 0
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 0 sampled 0 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged|} );
    ( "preferential attachment, p = 0.5, w = 64",
      {|mc
value 3fdd1fa7189adebe
lower 0
upper 3fe2000000000000
pc 0*2^0
pd 3fec000000000000*2^-1
exact false
s 10000 -> 5625
drawn 3147 sampled 435 deleted 776
layers 19 max_width 128 peak_words 1844
aborted true stop converged
ht
value 3fdd1fa7189adebd
lower 0
upper 3fe2000000000000
pc 0*2^0
pd 3fec000000000000*2^-1
exact false
s 10000 -> 5625
drawn 3147 sampled 435 deleted 776
layers 19 max_width 128 peak_words 1844
aborted true stop converged
prepare
sampling
bounds 0 3fe2000000000000
strata 840 md5 2eb806da218c360b3b0f0a78a3d921e3
stratum 7 3f80000000000000
stratum 7 3f80000000000000
stratum 7 3f80000000000000
stratum 7 3f80000000000000
hits 1
hits 0
hits 1
hits 1
bounds
value 0
lower 0
upper 3fe2000000000000
pc 0*2^0
pd 3fec000000000000*2^-1
exact false
s 10000 -> 5625
drawn 0 sampled 0 deleted 776
layers 19 max_width 128 peak_words 1844
aborted true stop converged|} );
    ( "karate random deletion w = 8",
      {|mc
value 3feff8a682b62145
lower 0
upper 3ff0000000000000
pc 0*2^0
pd 0*2^0
exact false
s 10000 -> 10000
drawn 9999 sampled 63 deleted 80
layers 14 max_width 16 peak_words 178
aborted true stop converged
prepare
sampling
bounds 3f33a6363f6d7102 3ff0000000000000
strata 134 md5 b05fabf561f4a273572aa872c1440bbb
stratum 4 3f9a62f25863922c
stratum 4 3fbe27d472204523
stratum 4 3fb846fa23a166ca
stratum 4 3fa1c8d5e3b912d1
hits 1
hits 1
hits 1
hits 1
bounds
value 0
lower 0
upper 3ff0000000000000
pc 0*2^0
pd 0*2^0
exact false
s 10000 -> 10000
drawn 0 sampled 0 deleted 80
layers 14 max_width 16 peak_words 222
aborted true stop converged|} );
    ( "Reliability.estimate NYC k = 5 w = 100",
      {|value 0
lower 0
upper 3e97d102deb4e927
exact false
s 10000 -> 2402 drawn 2
sub
value 0
lower 0
upper 3f7b2d6a12006e00
pc 0*2^0
pd 3fefc9a52bdbff24*2^0
exact false
s 10000 -> 66
drawn 2 sampled 2 deleted 62
layers 9 max_width 162 peak_words 2680
aborted true stop converged
sub
value 3fdbe457d65ad3b0
lower 3fdbe457d65ad3b0
upper 3fdbe457d65ad3b0
pc 3febe457d65ad3b0*2^-1
pd 3fe20dd414d29628*2^0
exact true
s 10000 -> 2402
drawn 0 sampled 0 deleted 0
layers 1 max_width 1 peak_words 0
aborted false stop completed
value 0
lower 0
upper 3f624350a82cc424
exact false
s 10000 -> 149 drawn 10
sub
value 0
lower 0
upper 3f8e9764153b54c0
pc 0*2^0
pd 3fef85a26fab12ad*2^0
exact false
s 10000 -> 149
drawn 10 sampled 10 deleted 698
layers 18 max_width 200 peak_words 2625
aborted true stop converged|} );
    ( "exact fig1",
      {|r 3fe7a60913a4f873*2^0
pc 3fe7a60913a4f873*2^0
pd 3fe0b3edd8b60f1c*2^-1
layers 6 nodes 23 max 8
r 3fe7a60913a4f871*2^0
pc 3fe7a60913a4f871*2^0
pd 3fe0b3edd8b60f1c*2^-1
layers 6 nodes 17 max 6|} );
    ( "exact karate",
      {|r 3feff7f59643fca2*2^0
pc 3feff7f59643fca2*2^0
pd 3fe014d37806b6c0*2^-9
layers 78 nodes 125099 max 8000
r 3feff7f59643fcb2*2^0
pc 3feff7f59643fcb2*2^0
pd 3fe014d37806b6bf*2^-9
layers 78 nodes 84280 max 4800|} );
  ]

(* The two other frontier machines, each under deletion, where the
   table's iteration order decides which nodes are deleted and the
   order in which they are consumed: merging on exact terminal counts
   ([merge_flags = false]) and resolving sinks only at departures
   ([eager = false]). On karate [0; 33] and the DBLP1 case both give
   the default's answers (two terminals, or no component that gathers
   two of them in the layers built), so the five-terminal karate cases
   are the ones where each variant moves the answer. *)
let variant_cases =
  let dblp1 () = (D.dblp1 ~seed:1 ()).D.graph in
  let five = [ 0; 5; 16; 24; 33 ] in
  [
    ( "karate exact keys w = 8",
      fun () -> s2bdd_lines ~merge_flags:false ~width:8 (karate ()) ~terminals:[ 0; 33 ] );
    ( "karate lazy w = 8",
      fun () -> s2bdd_lines ~eager:false ~width:8 (karate ()) ~terminals:[ 0; 33 ] );
    ( "DBLP1 exact keys w = 1,000",
      fun () ->
        s2bdd_lines ~merge_flags:false ~width:1_000 (dblp1 ()) ~terminals:dblp1_terminals );
    ( "DBLP1 lazy w = 1,000",
      fun () -> s2bdd_lines ~eager:false ~width:1_000 (dblp1 ()) ~terminals:dblp1_terminals );
    ( "karate k = 5 exact keys w = 8",
      fun () -> s2bdd_lines ~merge_flags:false ~width:8 (karate ()) ~terminals:five );
    ( "karate k = 5 lazy w = 8",
      fun () -> s2bdd_lines ~eager:false ~width:8 (karate ()) ~terminals:five );
  ]

let variant_expected =
  [
    ( "karate exact keys w = 8",
      {|mc
value 3feff76d50c273c4
lower 3f94ca6eb838fc10
upper 3ff0000000000000
pc 3fe4ca6eb838fc10*2^-5
pd 0*2^0
exact false
s 10000 -> 9796
drawn 9793 sampled 137 deleted 175
layers 28 max_width 16 peak_words 384
aborted true stop converged
ht
value 3feff76d50c3562c
lower 3f94ca6eb838fc10
upper 3ff0000000000000
pc 3fe4ca6eb838fc10*2^-5
pd 0*2^0
exact false
s 10000 -> 9796
drawn 9793 sampled 137 deleted 175
layers 28 max_width 16 peak_words 384
aborted true stop converged
prepare
sampling
bounds 3f94ca6eb838fc10 3ff0000000000000
strata 183 md5 10db72f60c055a2ba11b91193562ceb3
stratum 4 3faba977a9e25c07
stratum 4 3fa97d506e8aefeb
stratum 4 3fa4854ffc25899a
stratum 4 3fa2e8bc691b34cb
hits 1
hits 1
hits 1
hits 1
bounds
value 3f94ca6eb838fc10
lower 3f94ca6eb838fc10
upper 3ff0000000000000
pc 3fe4ca6eb838fc10*2^-5
pd 0*2^0
exact false
s 10000 -> 9796
drawn 0 sampled 0 deleted 175
layers 28 max_width 16 peak_words 384
aborted true stop converged|} );
    ( "karate lazy w = 8",
      {|mc
value 3feff5ae3e8766b4
lower 3f24956c6f70dbe5
upper 3ff0000000000000
pc 3fe4956c6f70dbe5*2^-12
pd 0*2^0
exact false
s 10000 -> 9998
drawn 10003 sampled 186 deleted 282
layers 78 max_width 16 peak_words 396
aborted false stop completed
ht
value 3feff5ae3e887504
lower 3f24956c6f70dbe5
upper 3ff0000000000000
pc 3fe4956c6f70dbe5*2^-12
pd 0*2^0
exact false
s 10000 -> 9998
drawn 10003 sampled 186 deleted 282
layers 78 max_width 16 peak_words 396
aborted false stop completed
prepare
sampling
bounds 3f24956c6f70dbe5 3ff0000000000000
strata 282 md5 9fca75f5cee37c20bfb6ea84ffb9555a
stratum 4 3faba977a9e25c07
stratum 4 3fa97d506e8aefeb
stratum 4 3fa4854ffc25899a
stratum 4 3fa2e8bc691b34cb
hits 1
hits 1
hits 1
hits 1
bounds
value 3f24956c6f70dbe5
lower 3f24956c6f70dbe5
upper 3ff0000000000000
pc 3fe4956c6f70dbe5*2^-12
pd 0*2^0
exact false
s 10000 -> 9998
drawn 0 sampled 0 deleted 282
layers 78 max_width 16 peak_words 396
aborted false stop completed|} );
    ( "DBLP1 exact keys w = 1,000",
      {|mc
value 3fc096ba9eab187b
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 626 sampled 626 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged
ht
value 3fc096ba9eab187b
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 626 sampled 626 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged
prepare
sampling
bounds 0 3fcf07237ff6006c
strata 28224 md5 62d793d4bd33f68c66d7b39fe322dcca
stratum 11 3f0105416e1dc9aa
stratum 11 3f0105416e1dc9aa
stratum 11 3f0105416e1dc9a9
stratum 11 3f0105416e1dc9aa
hits 1
hits 0
hits 0
hits 1
bounds
value 0
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 0 sampled 0 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged|} );
    ( "DBLP1 lazy w = 1,000",
      {|mc
value 3fc096ba9eab187b
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 626 sampled 626 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged
ht
value 3fc096ba9eab187b
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 626 sampled 626 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged
prepare
sampling
bounds 0 3fcf07237ff6006c
strata 28224 md5 62d793d4bd33f68c66d7b39fe322dcca
stratum 11 3f0105416e1dc9aa
stratum 11 3f0105416e1dc9aa
stratum 11 3f0105416e1dc9a9
stratum 11 3f0105416e1dc9aa
hits 1
hits 0
hits 0
hits 1
bounds
value 0
lower 0
upper 3fcf07237ff6006c
pc 0*2^0
pd 3fe83e3720027fe5*2^0
exact false
s 10000 -> 2424
drawn 0 sampled 0 deleted 27224
layers 38 max_width 2000 peak_words 24576
aborted true stop converged|} );
    ( "karate k = 5 exact keys w = 8",
      {|mc
value 3fdb1a4532744067
lower 3f5fe3db8c736fc1
upper 3fe04df628b2fc2b
pc 3fefe3db8c736fc1*2^-9
pd 3fef6413ae9a07aa*2^-1
exact false
s 10000 -> 9960
drawn 2605 sampled 166 deleted 177
layers 30 max_width 16 peak_words 334
aborted true stop converged
ht
value 3fdb1a4532747af8
lower 3f5fe3db8c736fc1
upper 3fe04df628b2fc2b
pc 3fefe3db8c736fc1*2^-9
pd 3fef6413ae9a07aa*2^-1
exact false
s 10000 -> 9960
drawn 2605 sampled 166 deleted 177
layers 30 max_width 16 peak_words 334
aborted true stop converged
prepare
sampling
bounds 3f5fe3db8c736fc1 3fe04df628b2fc2b
strata 185 md5 a5c95ebbf0afdf54503dcc44e94caf04
stratum 4 3f507d897fd34bc9
stratum 4 3f4d2564ce1660f6
stratum 4 3f41efa9a3c5f5ef
stratum 4 3f444bc745097faf
hits 1
hits 0
hits 1
hits 1
bounds
value 3f5fe3db8c736fc1
lower 3f5fe3db8c736fc1
upper 3fe04df628b2fc2b
pc 3fefe3db8c736fc1*2^-9
pd 3fef6413ae9a07aa*2^-1
exact false
s 10000 -> 9960
drawn 0 sampled 0 deleted 177
layers 30 max_width 16 peak_words 334
aborted true stop converged|} );
    ( "karate k = 5 lazy w = 8",
      {|mc
value 3fdb12bd5f9652bd
lower 0
upper 3fe04df628b2fc2b
pc 0*2^0
pd 3fef6413ae9a07aa*2^-1
exact false
s 10000 -> 5095
drawn 2605 sampled 166 deleted 233
layers 37 max_width 16 peak_words 408
aborted true stop converged
ht
value 3fdb12bd5f968d4e
lower 0
upper 3fe04df628b2fc2b
pc 0*2^0
pd 3fef6413ae9a07aa*2^-1
exact false
s 10000 -> 5095
drawn 2605 sampled 166 deleted 233
layers 37 max_width 16 peak_words 408
aborted true stop converged
prepare
sampling
bounds 0 3fe04df628b2fc2b
strata 241 md5 e3f7a434b1a20c0a7825a577b6b91433
stratum 4 3f507d897fd34bc9
stratum 4 3f4d2564ce1660f6
stratum 4 3f41efa9a3c5f5ef
stratum 4 3f444bc745097faf
hits 1
hits 0
hits 1
hits 1
bounds
value 0
lower 0
upper 3fe04df628b2fc2b
pc 0*2^0
pd 3fef6413ae9a07aa*2^-1
exact false
s 10000 -> 5095
drawn 0 sampled 0 deleted 233
layers 37 max_width 16 peak_words 408
aborted true stop converged|} );
  ]

let check_cases cases expected () =
  List.iter
    (fun (name, f) ->
      let got = f () in
      Alcotest.(check (list string))
        name
        (String.split_on_char '\n' (List.assoc name expected))
        got)
    cases

let suite =
  ( "s2bdd-known",
    [
      Alcotest.test_case "known answers of the S2BDD and exact BDD" `Quick
        (check_cases cases expected);
      Alcotest.test_case "known answers of the exact-key and lazy S2BDD" `Quick
        (check_cases variant_cases variant_expected);
    ] )
