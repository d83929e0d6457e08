(* Deep tests of the sparse frontier state machine: the fast
   (union-find) descent against the slow (state machine) descent,
   sparse-representation edge cases, and exactness under adversarial
   edge orders. *)

open Testutil
module F = Bddbase.Fstate
module BF = Bddbase.Bruteforce
module O = Graphalgo.Ordering
module Ref = Check.Reference

let ctx_of g ts order = F.make g ~order ~terminals:ts

(* Enumerate all sink probabilities by walking the machine with weights,
   from an arbitrary state: a reference for descend correctness. *)
let exact_from ctx ~pos st =
  let m = F.n_positions ctx in
  let rec go pos st acc =
    if pos >= m then failwith "live state at the end"
    else begin
      let e = F.edge_at ctx pos in
      let branch exists w sum =
        if w = 0. then sum
        else
          match F.step ctx ~eager:true ~pos st ~exists with
          | F.Sink1 -> sum +. (acc *. w)
          | F.Sink0 -> sum
          | F.Live st' -> go (pos + 1) st' (acc *. w) +. sum -. 0. |> fun x -> x
      in
      let s1 = branch true e.Ugraph.p 0. in
      branch false (1. -. e.Ugraph.p) s1
    end
  in
  go pos st 1.

(* descend_union must agree in distribution with the slow descend; we
   check something stronger on deterministic completions: with p in
   {0, 1} edges, both are deterministic and must agree exactly. *)
let t_descend_union_deterministic () =
  let r = rng () in
  for _ = 1 to 200 do
    let n = 2 + Prng.int r 6 in
    let m = 1 + Prng.int r 10 in
    let es =
      List.init m (fun _ ->
          (Prng.int r n, Prng.int r n, if Prng.bool r then 1.0 else 0.0))
    in
    let g = graph ~n es in
    let k = 2 + Prng.int r (n - 1) in
    let ts = Workload.Generators.random_terminals ~seed:(Prng.int r 10000) g ~k in
    let viable =
      List.for_all (fun t -> Ugraph.degree g t > 0) ts && List.length ts >= 2
    in
    if viable then begin
      let order = O.order_edges O.Bfs g in
      let ctx = ctx_of g ts order in
      let dsu = Dsu.create (2 * n) in
      let slow =
        Ref.descend ctx ~eager:true ~pos:0 F.initial ~bernoulli:(fun p -> p >= 0.5)
      in
      let fast, _, _ =
        Ref.descend_union ctx g ~terminals:ts ~dsu ~detail:false ~pos:0 F.initial
          ~bernoulli:(fun p -> p >= 0.5)
      in
      Alcotest.(check bool) "fast = slow on deterministic graph" slow fast
    end
  done

(* From every reachable intermediate state of a small graph, the exact
   residual reliability computed by enumerating the machine must match
   brute force conditioning; and fast-descent sampling must agree
   statistically. *)
let t_descend_union_statistical_midstate () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let order = O.order_edges O.Natural g in
  let ctx = ctx_of g ts order in
  let dsu = Dsu.create (2 * Ugraph.n_vertices g) in
  let r = rng () in
  (* Walk two fixed decisions deep, then compare. *)
  let state2 =
    match F.step ctx ~eager:true ~pos:0 F.initial ~exists:true with
    | F.Live st1 -> (
      match F.step ctx ~eager:true ~pos:1 st1 ~exists:false with
      | F.Live st2 -> st2
      | _ -> Alcotest.fail "unexpected sink at depth 2")
    | _ -> Alcotest.fail "unexpected sink at depth 1"
  in
  let expect = exact_from ctx ~pos:2 state2 in
  let s = 60_000 in
  let hits = ref 0 in
  for _ = 1 to s do
    let c, _, _ =
      Ref.descend_union ctx g ~terminals:ts ~dsu ~detail:false ~pos:2 state2
        ~bernoulli:(fun p -> Prng.bernoulli r p)
    in
    if c then incr hits
  done;
  let est = float_of_int !hits /. float_of_int s in
  let sigma = sqrt (expect *. (1. -. expect) /. float_of_int s) +. 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "midstate estimate %.4f ~ %.4f" est expect)
    true
    (Float.abs (est -. expect) <= 5. *. sigma)

let t_descend_detail_consistency () =
  (* detail:true and detail:false must make identical bernoulli draws
     (same connectivity) given the same stream. *)
  let g = two_triangles 0.5 in
  let ts = [ 0; 4 ] in
  let order = O.order_edges O.Bfs g in
  let ctx = ctx_of g ts order in
  let dsu = Dsu.create (2 * Ugraph.n_vertices g) in
  for seed = 0 to 49 do
    let mk () =
      let r = Prng.create seed in
      fun p -> Prng.bernoulli r p
    in
    let c1, _, _ =
      Ref.descend_union ctx g ~terminals:ts ~dsu ~detail:false ~pos:0 F.initial
        ~bernoulli:(mk ())
    in
    let c2, h, logq =
      Ref.descend_union ctx g ~terminals:ts ~dsu ~detail:true ~pos:0 F.initial
        ~bernoulli:(mk ())
    in
    Alcotest.(check bool) "same connectivity" c1 c2;
    Alcotest.(check bool) "hash nonzero" true (h <> 0);
    Alcotest.(check bool) "logq <= 0" true (logq <= 0.)
  done

(* Sparse-representation specifics. *)

let t_initial_state_empty () =
  Alcotest.(check int) "no components" 0 (F.component_count F.initial);
  Alcotest.(check int) "empty exact key" 1 (Array.length (F.key_exact F.initial));
  Alcotest.(check int) "empty flags key" 1 (Array.length (F.key_flags F.initial))

let t_nonterminal_edges_stay_implicit () =
  (* Processing a non-existent edge between non-terminals keeps the
     state empty (the vertices stay implicit singletons). *)
  let g = path4 0.5 in
  let ctx = ctx_of g [ 0; 3 ] (Array.init 3 Fun.id) in
  (* Edge 1 = (1,2): neither endpoint is a terminal. But position 0
     processes edge (0,1) whose endpoint 0 is a terminal. Use a custom
     order starting with (1,2). *)
  let ctx2 = ctx_of g [ 0; 3 ] [| 1; 0; 2 |] in
  ignore ctx;
  match F.step ctx2 ~eager:true ~pos:0 F.initial ~exists:false with
  | F.Live st -> Alcotest.(check int) "still empty" 0 (F.component_count st)
  | _ -> Alcotest.fail "expected live"

let t_existent_edge_materialises () =
  let g = path4 0.5 in
  let ctx = ctx_of g [ 0; 3 ] [| 1; 0; 2 |] in
  match F.step ctx ~eager:true ~pos:0 F.initial ~exists:true with
  | F.Live st ->
    Alcotest.(check int) "one merged component" 1 (F.component_count st);
    Alcotest.(check (array int)) "no terminals in it" [| 0 |]
      (F.component_terminals st)
  | _ -> Alcotest.fail "expected live"

let t_terminal_entry_materialises () =
  let g = path4 0.5 in
  let ctx = ctx_of g [ 0; 3 ] (Array.init 3 Fun.id) in
  (* Edge (0,1) non-existent: terminal 0 enters, must be explicit;
     it also LEAVES at pos 0 (its only edge) -> Sink0. *)
  (match F.step ctx ~eager:true ~pos:0 F.initial ~exists:false with
  | F.Sink0 -> ()
  | _ -> Alcotest.fail "expected sink0: terminal 0 stranded");
  (* Existent: terminal 0 merges with vertex 1 and departs; the
     component lives on through vertex 1. *)
  match F.step ctx ~eager:true ~pos:0 F.initial ~exists:true with
  | F.Live st ->
    Alcotest.(check int) "one component" 1 (F.component_count st);
    Alcotest.(check (array int)) "carrying one terminal" [| 1 |]
      (F.component_terminals st)
  | _ -> Alcotest.fail "expected live"

let t_demotion_on_departure () =
  (* Graph: edges (0,1), (1,2), (2,3) with terminals 0 and 3 won't
     demote; use terminals {0, 3} on a graph where a non-terminal pair
     merges and one member departs: 0-1, 0-2, 1-3 with terminals 2,3.
     Edge order: (0,1) existent -> comp {0,1}; then (0,2): 0 departs
     (last edge of 0)... construct explicitly. *)
  let g = graph ~n:4 [ (0, 1, 0.5); (0, 2, 0.5); (1, 3, 0.5) ] in
  let ts = [ 2; 3 ] in
  let ctx = ctx_of g ts (Array.init 3 Fun.id) in
  match F.step ctx ~eager:true ~pos:0 F.initial ~exists:true with
  | F.Live st1 -> (
    Alcotest.(check int) "merged pair explicit" 1 (F.component_count st1);
    (* (0,2) non-existent: 0 departs; comp {1} has tc=0 -> demoted. *)
    match F.step ctx ~eager:true ~pos:1 st1 ~exists:false with
    | F.Sink0 ->
      (* terminal 2's only edge was (0,2): stranded. Correct! *)
      ()
    | F.Live _ -> Alcotest.fail "terminal 2 should be stranded"
    | F.Sink1 -> Alcotest.fail "cannot be connected")
  | _ -> Alcotest.fail "expected live"

let t_exactness_under_adversarial_orders () =
  (* Random graphs x random orders: probability-weighted enumeration of
     the machine must equal brute force. *)
  let r = rng () in
  for trial = 1 to 60 do
    let n = 3 + Prng.int r 4 in
    let m = 2 + Prng.int r 7 in
    let es =
      List.init m (fun _ ->
          (Prng.int r n, Prng.int r n, float_of_int (Prng.int r 11) /. 10.))
    in
    let g = graph ~n es in
    let ts = Workload.Generators.random_terminals ~seed:trial g ~k:2 in
    if List.for_all (fun t -> Ugraph.degree g t > 0) ts then begin
      let order = O.order_edges (O.Random trial) g in
      let ctx = ctx_of g ts order in
      let expect = BF.reliability g ~terminals:ts in
      let got = exact_from ctx ~pos:0 F.initial in
      check_close ~eps:1e-9 (Printf.sprintf "trial %d" trial) expect got
    end
  done

let t_descend_union_dsu_too_small () =
  let g = fig1 () in
  let ts = [ 0; 3; 4 ] in
  let ctx = ctx_of g ts (Array.init 6 Fun.id) in
  let small = Dsu.create 2 in
  Alcotest.check_raises "small dsu"
    (Invalid_argument "Check.Reference.descend_union: DSU too small")
    (fun () ->
      ignore
        (Ref.descend_union ctx g ~terminals:ts ~dsu:small ~detail:false ~pos:0
           F.initial
           ~bernoulli:(fun _ -> true)))

(* ---- step against its reference copy ---- *)

(* Every state reachable from the root under a random order, terminal
   set and sinking mode, layer by layer (deduplicated by exact key,
   at most [cap] per layer in key order), steps to the same outcome
   under [Fstate.step] and the reference copy of its former
   closure-based body. Edge probabilities play no part: both
   decisions are taken at every node. *)
let prop_step_matches_reference =
  let cap = 200 in
  QCheck.Test.make ~name:"step = reference step on every reachable state" ~count:300
    QCheck.(pair (Test_bddbase.arb_graph_ts ~max_n:10 ~max_m:18 ~max_k:4) (pair int bool))
    (fun ((n, es, ts), (seed, eager)) ->
      let g = graph ~n es in
      QCheck.assume (List.for_all (fun t -> Ugraph.degree g t > 0) ts);
      let order = Array.init (Ugraph.n_edges g) Fun.id in
      Prng.shuffle (Prng.create seed) order;
      let ctx = F.make g ~order ~terminals:ts in
      let rctx = Fstate_ref.make g ~order ~terminals:ts in
      let m = F.n_positions ctx in
      let same a b =
        match (a, b) with
        | F.Sink1, Fstate_ref.Sink1 | F.Sink0, Fstate_ref.Sink0 -> true
        | F.Live s, Fstate_ref.Live r ->
          F.key_exact s = Fstate_ref.key r
          && F.component_terminals s = r.Fstate_ref.tc
        | _ -> false
      in
      let rec layer pos states =
        pos >= m || states = []
        ||
        let next = Hashtbl.create 16 in
        List.for_all
          (fun st ->
            let r = Fstate_ref.of_fstate st in
            List.for_all
              (fun exists ->
                let a = F.step ctx ~eager ~pos st ~exists in
                (match a with
                | F.Live s -> Hashtbl.replace next (F.key_exact s) s
                | F.Sink1 | F.Sink0 -> ());
                same a (Fstate_ref.step rctx ~eager ~pos r ~exists))
              [ true; false ])
          states
        &&
        let keyed = List.sort compare (List.of_seq (Hashtbl.to_seq next)) in
        layer (pos + 1) (List.filteri (fun i _ -> i < cap) (List.map snd keyed))
      in
      layer 0 [ F.initial ])

(* ---- states as their own keys ---- *)

(* The layer table keyed by merge-key arrays, as the layer loops built
   it before states became their own keys: FNV-1a over every key
   element and element-wise equality. *)
let fnv_key a =
  let h = ref 0x811C9DC5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor (a.(i) + 0x9E3779B9)) * 0x01000193 land max_int
  done;
  !h

module Key_array_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = fnv_key
end)

(* Layer by layer, every child goes into an [F.Key_table] keyed by the
   state and a [Key_array_table] keyed by its merge key, each adding
   what it does not find. The two keep the same first-found state per
   key, hash every state as its merge key, and iterate in the same
   order, under either merge and either sinking mode; the next layer
   is the first [cap] states in that order. *)
let prop_state_table_matches_key_table =
  let cap = 200 in
  QCheck.Test.make ~name:"state-keyed table = merge-key table, same order" ~count:300
    QCheck.(
      pair (Test_bddbase.arb_graph_ts ~max_n:10 ~max_m:18 ~max_k:4) (triple int bool bool))
    (fun ((n, es, ts), (seed, eager, merge_flags)) ->
      let g = graph ~n es in
      QCheck.assume (List.for_all (fun t -> Ugraph.degree g t > 0) ts);
      let order = Array.init (Ugraph.n_edges g) Fun.id in
      Prng.shuffle (Prng.create seed) order;
      let ctx = F.make ~merge_flags g ~order ~terminals:ts in
      let key = if merge_flags then F.key_flags else F.key_exact in
      let m = F.n_positions ctx in
      let rec layer pos states =
        pos >= m || states = []
        ||
        let by_state = F.Key_table.create (2 * List.length states) in
        let by_key = Key_array_table.create (2 * List.length states) in
        List.iter
          (fun st ->
            List.iter
              (fun exists ->
                match F.step ctx ~eager ~pos st ~exists with
                | F.Live c ->
                  if not (F.Key_table.mem by_state c) then F.Key_table.add by_state c ();
                  let k = key c in
                  if not (Key_array_table.mem by_key k) then Key_array_table.add by_key k c
                | F.Sink1 | F.Sink0 -> ())
              [ true; false ])
          states;
        let kept = F.Key_table.fold (fun c () acc -> c :: acc) by_state [] in
        let kept' = Key_array_table.fold (fun _ c acc -> c :: acc) by_key [] in
        List.length kept = List.length kept'
        && List.for_all2 (fun a b -> F.key_exact a = F.key_exact b) kept kept'
        && List.for_all
             (fun c -> F.hash c = fnv_key (key c))
             kept
        && layer (pos + 1) (List.filteri (fun i _ -> i < cap) (List.rev kept))
      in
      layer 0 [ F.initial ])

(* An edge that changes nothing passes its state on as it is, so a layer
   can hold the root state beside an empty state that [step] rebuilt:
   they are one node. Here the first edge is a component of its own:
   present, both endpoints enter and leave at once, absent, the root
   passes through. *)
let t_unchanged_root_merges_with_rebuilt_empty () =
  let g = graph ~n:4 [ (2, 3, 0.5); (0, 1, 0.5) ] in
  List.iter
    (fun merge_flags ->
      let config =
        { Netrel.S2bdd.default_config with
          Netrel.S2bdd.order = `Explicit [| 0; 1 |]; merge_flags }
      in
      let r = Netrel.S2bdd.bounds ~config g ~terminals:[ 0; 1 ] in
      Alcotest.(check int) "one node after the first edge" 1 r.Netrel.S2bdd.max_width;
      check_close "bounds" 0.5 r.Netrel.S2bdd.lower)
    [ true; false ];
  match Bddbase.Exact.reliability ~order:[| 0; 1 |] g ~terminals:[ 0; 1 ] with
  | Ok (_, st) -> Alcotest.(check int) "exact BDD nodes" 2 st.Bddbase.Exact.total_nodes
  | Error _ -> Alcotest.fail "node budget"

(* The shared first/last-position pass against [Frontier.plan]'s fields
   and a per-vertex scan; a repeated edge id is rejected. *)
let prop_first_last_matches_plan =
  QCheck.Test.make ~name:"first/last positions = plan's fields = scan" ~count:300
    QCheck.(pair (Test_bddbase.arb_graph_ts ~max_n:10 ~max_m:18 ~max_k:2) int)
    (fun ((n, es, _), seed) ->
      let g = graph ~n es in
      let m = Ugraph.n_edges g in
      let order = Array.init m Fun.id in
      Prng.shuffle (Prng.create seed) order;
      let first, last = O.Frontier.first_last g order in
      let plan = O.Frontier.plan g order in
      let scan_first = Array.make n (-1) and scan_last = Array.make n (-1) in
      for v = 0 to n - 1 do
        Array.iteri
          (fun pos eid ->
            let e = Ugraph.edge g eid in
            if e.Ugraph.u = v || e.Ugraph.v = v then begin
              if scan_first.(v) < 0 then scan_first.(v) <- pos;
              scan_last.(v) <- pos
            end)
          order
      done;
      let rejects_repeat =
        m < 2
        ||
        let bad = Array.copy order in
        bad.(m - 1) <- bad.(0);
        match O.Frontier.first_last g bad with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      first = plan.O.Frontier.first_pos
      && last = plan.O.Frontier.last_pos
      && first = scan_first && last = scan_last && rejects_repeat)

let suite =
  ( "fstate-extra",
    [
      Alcotest.test_case "fast descent = slow descent (deterministic)" `Quick
        t_descend_union_deterministic;
      Alcotest.test_case "fast descent unbiased from mid-state" `Slow
        t_descend_union_statistical_midstate;
      Alcotest.test_case "detail on/off consistent" `Quick t_descend_detail_consistency;
      Alcotest.test_case "initial state is empty" `Quick t_initial_state_empty;
      Alcotest.test_case "non-terminals stay implicit" `Quick
        t_nonterminal_edges_stay_implicit;
      Alcotest.test_case "existent edge materialises" `Quick t_existent_edge_materialises;
      Alcotest.test_case "terminal entry materialises" `Quick
        t_terminal_entry_materialises;
      Alcotest.test_case "demotion on departure" `Quick t_demotion_on_departure;
      Alcotest.test_case "exact under adversarial orders" `Quick
        t_exactness_under_adversarial_orders;
      Alcotest.test_case "descend_union validates dsu size" `Quick
        t_descend_union_dsu_too_small;
    ]
    @ qtests
        [
          prop_step_matches_reference;
          prop_first_last_matches_plan;
          prop_state_table_matches_key_table;
        ]
    @ [
        Alcotest.test_case "an unchanged root merges with a rebuilt empty state" `Quick
          t_unchanged_root_merges_with_rebuilt_empty;
      ] )
