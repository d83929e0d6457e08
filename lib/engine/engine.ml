module P = Preprocess.Pipeline
module S = Netrel.S2bdd
module R = Netrel.Reliability
module SD = Netrel.Statsdoc
module O = Graphalgo.Ordering
module J = Obs.Json

type method_ = Pro | Pro_ht | Sampling_mc | Sampling_ht

let method_name = function
  | Pro -> "pro"
  | Pro_ht -> "pro-ht"
  | Sampling_mc -> "sampling-mc"
  | Sampling_ht -> "sampling-ht"

let method_of_name s =
  match String.lowercase_ascii s with
  | "pro" -> Some Pro
  | "pro-ht" -> Some Pro_ht
  | "sampling-mc" | "mc" -> Some Sampling_mc
  | "sampling-ht" | "ht" -> Some Sampling_ht
  | _ -> None

type query = {
  terminals : int list;
  method_ : method_;
  samples : int;
  width : int;
  ci_width : float option;
  max_samples : int option;
  seed : int;
  jobs : int;
  kernel : Mcsampling.kernel_mode;
}

let default =
  {
    terminals = [];
    method_ = Pro;
    samples = 10_000;
    width = 10_000;
    ci_width = None;
    max_samples = None;
    seed = 1;
    jobs = 1;
    kernel = Mcsampling.Flat;
  }

type answer = {
  method_name : string;
  result : J.t;
  value : float;
  exact : bool;
  cached : bool;
  obs : Obs.t;
}

(* A preprocessing outcome plus everything derived from it that later
   queries replay: the per-subproblem BFS edge orderings (what [`Auto]
   would recompute) and the observer that recorded the pipeline's phase
   account, merged into every consumer query's observer so cached and
   fresh documents carry the same preprocess section. *)
type prep_entry = {
  outcome : P.outcome;
  orders : int array array;
  pobs : Obs.t;
}

(* The result memo is keyed by the query record itself, under
   structural equality and a structural hash that reads every field and
   the first 24 terminals (the default [Hashtbl.hash] stops after two).
   A [ci_width] of NaN or -0, the floats on which structural equality
   parts from the bits, is refused before anything is memoised. *)
module Memo = Hashtbl.Make (struct
  type t = query

  let equal (a : t) b = a = b
  let hash (q : t) = Hashtbl.hash_param 32 64 q
end)

type ctx = {
  graph : Ugraph.t;
  mutable csr : Kernel.Csr.t option;
  preps : (string, prep_entry) Hashtbl.t;
  memo : answer Memo.t;
}

type t = {
  obs : Obs.t;
  eo : Obs.t; (* Obs.sub obs "engine": the cache counters *)
  ctxs : (int, ctx) Hashtbl.t;
}

let create ?(obs = Obs.disabled) () =
  { obs; eo = Obs.sub obs "engine"; ctxs = Hashtbl.create 4 }

let obs t = t.obs

(* ---- graph digest ---- *)

(* Chained splitmix64 over the graph content: vertex count, then the
   exact (u, v, p) bit patterns in edge order. Edge order is part of
   the identity on purpose — every downstream artifact (Csr layout,
   orderings, seed consumption) depends on it. The fold itself lives in
   Bingraph.Digest (one implementation for the engine key and the
   binary-container header, which must stay bit-compatible), and the
   graph keeps its result, so a text-loaded graph is hashed on its
   first query only. *)
let digest = Bingraph.Digest.of_graph

(* [?digest] lets a caller that already knows the graph's content
   digest (read from a binary-container header) skip the graph's one
   O(m) fold. Trusted like any other cache key: a wrong digest
   aliases two graphs, so only header digests that were computed by
   Bingraph over the same edge array belong here. *)
let context ?digest:(d0 = None) t g =
  let d =
    match d0 with
    | Some d ->
      Obs.incr t.eo "digest_from_header";
      d
    | None -> digest g
  in
  match Hashtbl.find_opt t.ctxs d with
  | Some ctx ->
    Obs.incr t.eo "graph.hit";
    ctx
  | None ->
    Obs.incr t.eo "graph.miss";
    let ctx =
      { graph = g; csr = None; preps = Hashtbl.create 8;
        memo = Memo.create 16 }
    in
    Hashtbl.replace t.ctxs d ctx;
    ctx

let csr t ctx =
  match ctx.csr with
  | Some c ->
    Obs.incr t.eo "csr.hit";
    c
  | None ->
    Obs.incr t.eo "csr.miss";
    let c = Kernel.Csr.of_graph ctx.graph in
    ctx.csr <- Some c;
    c

let terminals_key ts = String.concat "," (List.map string_of_int ts)

let prep t ctx ~terminals =
  let key = terminals_key terminals in
  match Hashtbl.find_opt ctx.preps key with
  | Some pe ->
    Obs.incr t.eo "prep.hit";
    pe
  | None ->
    Obs.incr t.eo "prep.miss";
    let pobs = Obs.fresh_like t.obs in
    let outcome = P.run ~obs:pobs ctx.graph ~terminals in
    let orders =
      match outcome with
      | P.Trivial _ -> [||]
      | P.Reduced { subproblems; _ } ->
        subproblems
        |> List.map (fun (sp : P.subproblem) ->
               O.order_edges (O.Bfs_from sp.P.terminals) sp.P.graph)
        |> Array.of_list
    in
    let pe = { outcome; orders; pobs } in
    Hashtbl.replace ctx.preps key pe;
    pe

(* ---- the method dispatch ---- *)

type outcome =
  | Report of R.report
  | Sampled of Mcsampling.estimate
  | Stopped of Adaptive.result

let validate q =
  match (q.ci_width, q.max_samples) with
  | None, Some _ -> Error "--max-samples requires --ci-width"
  | Some _, _ when q.method_ = Pro_ht ->
    (* Adaptive pro always draws MC descents: pro-ht would be pro. *)
    Error "--ci-width applies to pro / sampling-mc / sampling-ht only"
  | _ -> Ok ()

(* The one method dispatch, behind both [query] (which passes its cached
   Csr / prep / orders) and [netrel estimate] (nothing cached). The
   caches are thunks, so each is consulted only by the methods that
   read it; since every cached artifact is a pure function of the graph
   and terminals, answers are bit-identical either way. *)
let estimate ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(extension = true) ?csr ?prep g q =
  let ts = q.terminals and jobs = q.jobs in
  SD.par_account obs @@ fun () ->
  match q.method_ with
  | Pro | Pro_ht -> (
    let config =
      { S.default_config with S.samples = q.samples; S.width = q.width;
        S.estimator =
          (if q.method_ = Pro_ht then S.Horvitz_thompson else S.Monte_carlo);
        S.seed = q.seed }
    in
    let prep, orders =
      match prep with
      | None -> (None, None)
      | Some f ->
        let outcome, orders = f () in
        (Some outcome, Some orders)
    in
    match q.ci_width with
    | Some w ->
      Stopped
        (Adaptive.reliability ~obs ~trace ~config ~extension ~jobs ?prep ?orders
           ?max_samples:q.max_samples g ~terminals:ts ~ci_width:w)
    | None ->
      Report
        (R.estimate ~obs ~trace ~config ~extension ~jobs ?prep ?orders g
           ~terminals:ts))
  | Sampling_mc | Sampling_ht -> (
    let ht = q.method_ = Sampling_ht in
    let csr = Option.map (fun f -> f ()) csr in
    match q.ci_width with
    | Some w ->
      Stopped
        ((if ht then Adaptive.horvitz_thompson else Adaptive.monte_carlo)
           ~obs ~trace ~seed:q.seed ~jobs ~kernel:q.kernel ?csr
           ?max_samples:q.max_samples g ~terminals:ts ~ci_width:w)
    | None ->
      Sampled
        ((if ht then Mcsampling.horvitz_thompson else Mcsampling.monte_carlo)
           ~obs ~trace ~seed:q.seed ~jobs ~kernel:q.kernel ?csr g ~terminals:ts
           ~samples:q.samples))

let result_json = function
  | Report rep -> SD.result_of_report rep
  | Sampled e -> SD.result_of_estimate e
  | Stopped r ->
    SD.result_of_adaptive ~value:r.Adaptive.value ~lower:r.Adaptive.lower
      ~upper:r.Adaptive.upper ~exact:r.Adaptive.exact
      ~ci_width:r.Adaptive.ci_width ~target_width:r.Adaptive.target_width
      ~samples_used:r.Adaptive.samples_used
      ~samples_planned:r.Adaptive.samples_planned ~rounds:r.Adaptive.rounds
      ~stop:(Adaptive.stop_name r.Adaptive.stop)

(* ---- queries ---- *)

let query ?digest t g q =
  let ctx = context ~digest t g in
  Obs.incr t.eo "queries";
  match Memo.find_opt ctx.memo q with
  | Some a ->
    Obs.incr t.eo "result.hit";
    { a with cached = true }
  | None ->
    Obs.incr t.eo "result.miss";
    if q.jobs < 1 then invalid_arg "Engine.query: jobs < 1";
    Ugraph.validate_terminals g q.terminals;
    let qobs = Obs.fresh_like t.obs in
    let cached_prep () =
      let pe = prep t ctx ~terminals:q.terminals in
      Obs.merge ~into:qobs pe.pobs;
      (pe.outcome, pe.orders)
    in
    let outcome =
      Obs.gc_phase qobs "gc" @@ fun () ->
      estimate ~obs:qobs ~csr:(fun () -> csr t ctx) ~prep:cached_prep ctx.graph
        q
    in
    let value, exact =
      match outcome with
      | Report rep -> (rep.R.value, rep.R.exact)
      | Sampled e -> (e.Mcsampling.value, false)
      | Stopped r -> (r.Adaptive.value, r.Adaptive.exact)
    in
    let a =
      { method_name = method_name q.method_; result = result_json outcome;
        value; exact; cached = false; obs = qobs }
    in
    Memo.replace ctx.memo q a;
    a

(* ---- counters / summary ---- *)

let counter_names =
  [
    "queries"; "digest_from_header"; "graph.hit"; "graph.miss"; "csr.hit";
    "csr.miss"; "prep.hit"; "prep.miss"; "result.hit"; "result.miss";
  ]

let counters t =
  List.map
    (fun k ->
      let full = "engine." ^ k in
      (k, if Obs.mem t.obs full then Obs.counter_value t.obs full else 0))
    counter_names

let summary_json t =
  J.Obj
    [ ("engine", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (counters t))) ]
