(* Bechamel microbenchmarks: one kernel per table/figure family, so the
   hot paths behind each experiment can be tracked in isolation. *)

open Bechamel
open Toolkit
module D = Workload.Datasets
module F = Bddbase.Fstate
module S = Netrel.S2bdd
module O = Graphalgo.Ordering

let tests seed =
  (* Table 3/4 kernel: one plain Monte Carlo estimate on Karate. *)
  let karate = (D.karate ~seed ()).D.graph in
  let karate_ts = Workload.Generators.random_terminals ~seed karate ~k:5 in
  let t_mc =
    Test.make ~name:"table3/4: sampling-mc karate s=100"
      (Staged.stage @@ fun () ->
       Mcsampling.monte_carlo ~seed karate ~terminals:karate_ts ~samples:100)
  in
  (* Figure 3/4 kernel: one DP descent on the Tokyo road network. *)
  let tokyo = (D.tokyo ~seed:(seed + 3) ~scale:0.25 ()).D.graph in
  let tokyo_ts = Workload.Generators.random_terminals ~seed tokyo ~k:10 in
  let order = O.order_edges (O.Bfs_from tokyo_ts) tokyo in
  let ctx = F.make tokyo ~order ~terminals:tokyo_ts in
  let dsu = Dsu.create (2 * Ugraph.n_vertices tokyo) in
  let rng = Prng.create seed in
  let t_descend =
    Test.make ~name:"fig3/4: descend-union tokyo"
      (Staged.stage @@ fun () ->
       Check.Reference.descend_union ctx tokyo ~terminals:tokyo_ts ~dsu
         ~detail:false ~pos:0 F.initial
         ~bernoulli:(fun p -> Prng.bernoulli rng p))
  in
  (* The same descent through the flat kernel (early-exit union-find):
     the production path; the row above is the retained reference. *)
  let ksc = Kernel.create () in
  let t_descend_kernel =
    Test.make ~name:"fig3/4: descend-kernel tokyo"
      (Staged.stage @@ fun () ->
       F.descend_kernel ctx ~scratch:ksc ~detail:false ~pos:0 F.initial rng)
  in
  (* Figure 5 kernel: frontier state transitions (one BDD layer step). *)
  let st =
    match F.step ctx ~eager:true ~pos:0 F.initial ~exists:true with
    | F.Live st -> st
    | _ -> F.initial
  in
  let t_step =
    Test.make ~name:"fig5: fstate-step tokyo layer1"
      (Staged.stage @@ fun () -> F.step ctx ~eager:true ~pos:1 st ~exists:true)
  in
  (* Table 5 kernel: the full extension pipeline on Tokyo. *)
  let t_preprocess =
    Test.make ~name:"table5: preprocess tokyo"
      (Staged.stage @@ fun () ->
       Preprocess.Pipeline.run tokyo ~terminals:tokyo_ts)
  in
  (* Figure 4(b) kernel: the Theorem 1 closed form. *)
  let t_samplesize =
    Test.make ~name:"fig4b: samplesize theorem1"
      (Staged.stage @@ fun () ->
       Netrel.Samplesize.reduced ~s:10_000 ~pc:0.3 ~pd:0.2)
  in
  (* Small end-to-end: S2BDD estimate on Karate (Tables 3/4 Pro rows). *)
  let t_pro =
    Test.make ~name:"table3/4: s2bdd karate s=100 w=64"
      (Staged.stage @@ fun () ->
       S.estimate
         ~config:{ S.default_config with S.samples = 100; S.width = 64; S.seed = seed }
         karate ~terminals:karate_ts)
  in
  Test.make_grouped ~name:"netrel"
    [ t_mc; t_descend; t_descend_kernel; t_step; t_preprocess; t_samplesize; t_pro ]

let benchmark seed =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances =
    Instance.[ minor_allocated; major_allocated; monotonic_clock ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances (tests seed) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results

let run seed =
  print_endline "\n=== Bechamel microbenchmarks (one kernel per experiment family) ===";
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ minor_allocated; major_allocated; monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let results = benchmark seed in
  Notty_unix.output_image (Notty_unix.eol (img (window, results)))
