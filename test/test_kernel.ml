(* Differential tests for the flat sampling kernels (lib/kernel).
   The kernel's contract is bit-identity with the retained reference
   paths — same Prng consumption, same hashes, same float-operation
   order — so almost everything here is an exact equality check against
   [Check.Reference] (the pre-kernel samplers and [descend_union]) or
   the bool-array originals, not a tolerance comparison. *)

open Testutil
module K = Kernel
module F = Bddbase.Fstate
module O = Graphalgo.Ordering

let arb_graph_ts = Test_bddbase.arb_graph_ts

(* Drain both generators once: if the kernel consumed a different
   number of Prng draws than the reference, the streams desynchronise
   and the next value differs with overwhelming probability. *)
let streams_synced r1 r2 = Prng.int r1 1_000_000 = Prng.int r2 1_000_000

(* ---- CSR snapshot ---- *)

let t_csr_matches_graph () =
  let r = rng () in
  for _ = 1 to 100 do
    let n = 1 + Prng.int r 8 in
    let m = Prng.int r 14 in
    let es =
      List.init m (fun _ ->
          (Prng.int r n, Prng.int r n, float_of_int (Prng.int r 11) /. 10.))
    in
    let g = graph ~n es in
    let c = K.Csr.of_graph g in
    Alcotest.(check int) "n" n (K.Csr.n_vertices c);
    Alcotest.(check int) "m" m (K.Csr.n_edges c);
    for eid = 0 to m - 1 do
      let e = Ugraph.edge g eid in
      Alcotest.(check int) "eu" e.Ugraph.u c.K.Csr.eu.(eid);
      Alcotest.(check int) "ev" e.Ugraph.v c.K.Csr.ev.(eid);
      Alcotest.(check (float 0.)) "ep" e.Ugraph.p c.K.Csr.ep.(eid)
    done;
    for v = 0 to n - 1 do
      let got = ref [] in
      K.Csr.iter_incident c v (fun ~pos ~other ->
          got := (pos, other) :: !got);
      let want =
        Array.to_list (Ugraph.incident_eids g v)
        |> List.map (fun eid ->
               let e = Ugraph.edge g eid in
               (eid, if e.Ugraph.u = v then e.Ugraph.v else e.Ugraph.u))
      in
      let sort = List.sort (fun (a, _) (b, _) -> Int.compare a b) in
      Alcotest.(check (list (pair int int)))
        "incident" (sort want) (sort !got)
    done
  done

let t_csr_of_order () =
  let r = rng () in
  for _ = 1 to 50 do
    let g = fig1 () in
    let order = Array.init (Ugraph.n_edges g) Fun.id in
    Prng.shuffle r order;
    let c = K.Csr.of_order g ~order in
    Array.iteri
      (fun pos eid ->
        let e = Ugraph.edge g eid in
        Alcotest.(check int) "eu" e.Ugraph.u c.K.Csr.eu.(pos);
        Alcotest.(check int) "ev" e.Ugraph.v c.K.Csr.ev.(pos);
        Alcotest.(check (float 0.)) "ep" e.Ugraph.p c.K.Csr.ep.(pos))
      order
  done

(* ---- packed-word hashing ---- *)

let prop_mask_words_matches_stream =
  QCheck.Test.make ~name:"mask_words = Stream digest" ~count:500
    QCheck.(list bool)
    (fun bits ->
      let nb = List.length bits in
      let words = Array.make ((nb / Hash64.word_bits) + 1) 0 in
      List.iteri
        (fun i b ->
          if b then
            words.(i / Hash64.word_bits) <-
              words.(i / Hash64.word_bits)
              lor (1 lsl (i mod Hash64.word_bits)))
        bits;
      let st = Hash64.Stream.create () in
      List.iter (Hash64.Stream.add_bit st) bits;
      Hash64.mask_words words ~bits:nb = Hash64.Stream.finish st)

(* ---- draw loops vs the reference draw ---- *)

let reference_draw rng g present =
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) -> present.(eid) <- Prng.bernoulli rng e.p)
    g

let present_positions present =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) present;
  List.rev !acc

(* The plain draw is pinned by its drawn positions, read back with
   [iter_present], and stream sync; the detail draw below pins the
   exact drawn set through the mask hash. *)
let prop_draw_matches_reference =
  QCheck.Test.make ~name:"draw: same Prng stream, same present count"
    ~count:300
    (arb_graph_ts ~max_n:8 ~max_m:14 ~max_k:4)
    (fun (n, es, _) ->
      let g = graph ~n es in
      let seed = 7 * n + List.length es in
      let r1 = Prng.create seed and r2 = Prng.create seed in
      let present = Array.make (max (Ugraph.n_edges g) 1) false in
      reference_draw r1 g present;
      let c = K.Csr.of_graph g in
      let sc = K.create () in
      K.draw sc c r2;
      let drawn = ref [] in
      K.iter_present sc c (fun pos -> drawn := pos :: !drawn);
      present_positions present = List.rev !drawn
      && List.length !drawn = K.n_present sc
      && streams_synced r1 r2)

let prop_draw_prob_matches_reference =
  QCheck.Test.make ~name:"draw_prob: same prob, same mask hash" ~count:300
    (arb_graph_ts ~max_n:8 ~max_m:14 ~max_k:4)
    (fun (n, es, _) ->
      let g = graph ~n es in
      let m = Ugraph.n_edges g in
      let seed = 13 * n + List.length es in
      let r1 = Prng.create seed and r2 = Prng.create seed in
      let present = Array.make (max m 1) false in
      let prob_ref = ref Xprob.one in
      Ugraph.iter_edges
        (fun eid (e : Ugraph.edge) ->
          if Prng.bernoulli r1 e.p then begin
            present.(eid) <- true;
            prob_ref := Xprob.scale e.p !prob_ref
          end
          else begin
            present.(eid) <- false;
            prob_ref := Xprob.scale (1. -. e.p) !prob_ref
          end)
        g;
      let c = K.Csr.of_graph g in
      let sc = K.create () in
      K.draw_prob sc c r2;
      K.drawn_prob sc c = !prob_ref
      && K.mask_hash sc = Hash64.mask present m
      && streams_synced r1 r2)

(* The readers answer only for the draw they can price: the last flat
   draw's snapshot, with the mask the value needs packed. *)
let t_readers_reject () =
  let c = K.Csr.of_graph (fig1 ()) in
  let other = K.Csr.of_graph (fig1 ()) in
  let sc = K.create () and r = rng () in
  let no_draw =
    Invalid_argument "Kernel: no draw against this Csr in scratch (draw first)"
  in
  Alcotest.check_raises "drawn_prob before any draw" no_draw (fun () ->
      ignore (K.drawn_prob sc c));
  K.draw_prob sc c r;
  Alcotest.check_raises "drawn_prob of a foreign snapshot" no_draw (fun () ->
      ignore (K.drawn_prob sc other));
  Alcotest.check_raises "drawn_log_q of a foreign snapshot" no_draw (fun () ->
      ignore (K.drawn_log_q sc other));
  ignore (K.drawn_prob sc c);
  ignore (K.drawn_log_q sc c);
  let no_mask = Invalid_argument "Kernel.drawn_log_q: the last draw packed no mask"
  and no_mask0 =
    Invalid_argument "Kernel.drawn_prob: the last draw packed no mask from position 0"
  in
  K.draw sc c r;
  Alcotest.check_raises "drawn_prob after draw" no_mask0 (fun () ->
      ignore (K.drawn_prob sc c));
  Alcotest.check_raises "drawn_log_q after draw" no_mask (fun () ->
      ignore (K.drawn_log_q sc c));
  K.draw_sub sc c ~pos:0 ~detail:false r;
  Alcotest.check_raises "drawn_log_q after a plain descent draw" no_mask
    (fun () -> ignore (K.drawn_log_q sc c));
  K.draw_sub sc c ~pos:2 ~detail:true r;
  Alcotest.check_raises "drawn_prob after a resumed detail draw" no_mask0
    (fun () -> ignore (K.drawn_prob sc c));
  ignore (K.drawn_log_q sc c);
  (* A bit-sliced draw writes the slab, not the flat buffers. *)
  K.draw_bitsliced sc other r;
  ignore (K.drawn_log_q sc c)

(* ---- early-exit connectivity vs the full union-find pass ---- *)

let prop_connectivity_matches =
  QCheck.Test.make ~name:"connected_terminals = terminals_connected_dsu"
    ~count:300
    (arb_graph_ts ~max_n:8 ~max_m:14 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let seed = 31 * n + List.length es in
      let r1 = Prng.create seed and r2 = Prng.create seed in
      let present = Array.make (max (Ugraph.n_edges g) 1) false in
      let dsu = Dsu.create n in
      let c = K.Csr.of_graph g in
      let sc = K.create () in
      let term_arr = Array.of_list ts in
      let ok = ref true in
      (* Many rounds on one scratch: exercises the generation stamping
         (a stale union-find leaking state across rounds would show up
         as a verdict mismatch). *)
      for _ = 1 to 20 do
        reference_draw r1 g present;
        K.draw sc c r2;
        let want =
          Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present ts
        in
        let got = K.connected_terminals sc c term_arr in
        if want <> got then ok := false
      done;
      !ok && streams_synced r1 r2)

(* ---- sampler bit-identity: kernel path vs retained reference ---- *)

let mc_projection (e : Mcsampling.estimate) =
  ( e.Mcsampling.value,
    e.Mcsampling.samples_used,
    e.Mcsampling.hits,
    e.Mcsampling.distinct,
    e.Mcsampling.variance_estimate,
    e.Mcsampling.chunk_samples )

let prop_samplers_match_reference =
  QCheck.Test.make ~name:"MC/HT = Reference at jobs 1/2/8" ~count:40
    (arb_graph_ts ~max_n:7 ~max_m:12 ~max_k:3)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let samples = 700 in
      let seed = 5 + n in
      let mc_ref =
        Check.Reference.monte_carlo ~seed g ~terminals:ts ~samples
      in
      let ht_ref =
        Check.Reference.horvitz_thompson ~seed g ~terminals:ts ~samples
      in
      List.for_all
        (fun jobs ->
          mc_projection
            (Mcsampling.monte_carlo ~seed ~jobs g ~terminals:ts ~samples)
          = mc_projection mc_ref
          && mc_projection
               (Mcsampling.horvitz_thompson ~seed ~jobs g ~terminals:ts
                  ~samples)
             = mc_projection ht_ref)
        [ 1; 2; 8 ])

(* ---- descent: kernel path vs descend_union, incl. resume offset ---- *)

(* A viable Fstate instance: every terminal needs positive degree. *)
let viable g ts =
  List.length ts >= 2 && List.for_all (fun t -> Ugraph.degree g t > 0) ts

(* [descend_union]'s triple from the kernel descent: the verdict, then
   for a detail descent the mask hash and the log-q reader; otherwise
   the reference's empty-stream digest and 0. *)
let kernel_triple ctx sc ~detail ~pos st rng =
  let connected = F.descend_kernel ctx ~scratch:sc ~detail ~pos st rng in
  if detail then (connected, K.mask_hash sc, F.descent_log_q ctx ~scratch:sc)
  else (connected, Hash64.mask_words [||] ~bits:0, 0.)

let prop_descend_kernel_matches_union =
  QCheck.Test.make ~name:"descend_kernel = descend_union (both details)"
    ~count:200
    (arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      QCheck.assume (viable g ts);
      let order = O.order_edges (O.Bfs_from ts) g in
      let ctx = F.make g ~order ~terminals:ts in
      let dsu = Dsu.create (2 * n) in
      let sc = K.create () in
      let seed = 17 * n + List.length es in
      List.for_all
        (fun detail ->
          let r1 = Prng.create seed and r2 = Prng.create seed in
          let a =
            Check.Reference.descend_union ctx g ~terminals:ts ~dsu ~detail
              ~pos:0 F.initial
              ~bernoulli:(fun p -> Prng.bernoulli r1 p)
          in
          let b = kernel_triple ctx sc ~detail ~pos:0 F.initial r2 in
          a = b && streams_synced r1 r2)
        [ false; true ])

(* Resumed descents: step the machine a few positions in, then complete
   from the live mid-state at a non-zero start offset. The kernel must
   reproduce the reference triple exactly — including the completion
   hash, whose bit indexing restarts at the offset. *)
let prop_descend_kernel_resume =
  QCheck.Test.make ~name:"descend_kernel = descend_union (resume offset)"
    ~count:200
    (arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      QCheck.assume (viable g ts);
      let order = O.order_edges (O.Bfs_from ts) g in
      let ctx = F.make g ~order ~terminals:ts in
      let m = F.n_positions ctx in
      QCheck.assume (m >= 2);
      let walk = Prng.create (23 * n + m) in
      let steps = 1 + Prng.int walk (m - 1) in
      let rec advance pos st =
        if pos >= steps then Some (pos, st)
        else
          let e = F.edge_at ctx pos in
          match
            F.step ctx ~eager:true ~pos st
              ~exists:(Prng.bernoulli walk e.Ugraph.p)
          with
          | F.Sink1 | F.Sink0 -> None
          | F.Live st' -> advance (pos + 1) st'
      in
      match advance 0 F.initial with
      | None -> QCheck.assume_fail ()
      | Some (pos, st) ->
        let dsu = Dsu.create (2 * n) in
        let sc = K.create () in
        let seed = 29 * n + pos in
        List.for_all
          (fun detail ->
            let r1 = Prng.create seed and r2 = Prng.create seed in
            let a =
              Check.Reference.descend_union ctx g ~terminals:ts ~dsu ~detail
                ~pos st
                ~bernoulli:(fun p -> Prng.bernoulli r1 p)
            in
            let b = kernel_triple ctx sc ~detail ~pos st r2 in
            a = b && streams_synced r1 r2)
          [ false; true ])

let suite =
  ( "kernel",
    [
      Alcotest.test_case "csr matches graph" `Quick t_csr_matches_graph;
      Alcotest.test_case "csr of_order layout" `Quick t_csr_of_order;
      Alcotest.test_case "probability readers: snapshot and mask checks"
        `Quick t_readers_reject;
    ]
    @ qtests
        [
          prop_mask_words_matches_stream;
          prop_draw_matches_reference;
          prop_draw_prob_matches_reference;
          prop_connectivity_matches;
          prop_samplers_match_reference;
          prop_descend_kernel_matches_union;
          prop_descend_kernel_resume;
        ] )
