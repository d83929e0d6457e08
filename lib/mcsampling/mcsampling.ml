type estimate = {
  value : float;
  samples_used : int;
  hits : int;
  distinct : int;
  variance_estimate : float;
  jobs_used : int;
  chunk_samples : int array;
}

(* Samples are drawn in fixed-size chunks so that work distribution and
   random-stream assignment are independent of the number of domains:
   chunk [i] always covers the same sample indices and always draws from
   the [i]-th [Prng.split] of the master generator, whether the chunks
   run on one domain or eight. [chunk_target] is therefore part of the
   determinism contract: changing it changes which possible graphs a
   seed draws (it does not change the estimator's distribution). *)
let chunk_target = 4096

(* Edge-count-aware chunk sizing for the large-graph regime: a chunk's
   work is roughly [len * edges] bernoulli draws, so on a million-edge
   graph 4096-sample chunks would leave a small budget as one or two
   indivisible lumps and starve the other domains. The target shrinks
   past [chunk_edge_threshold] edges so every chunk stays near a fixed
   [threshold * chunk_target] edge-draw budget. Like [chunk_target],
   this function is part of the determinism contract: it depends only
   on the edge count, never on [--jobs], and every built-in dataset
   (Hit-d is the largest at ~25k edges) sits below the threshold, so
   their seeded estimates keep the historical 4096 layout. *)
let chunk_edge_threshold = 32_768

let chunk_target_for ~edges =
  if edges <= chunk_edge_threshold then chunk_target
  else max 64 (chunk_edge_threshold * chunk_target / edges)

(* Which draw kernel the samplers run on. [Flat] is the scalar draw
   (one bernoulli per edge per sample, the pre-kernel stream —
   bit-identical to [Reference]); [Bitsliced] draws 62 worlds per pass
   through [Kernel.draw_bitsliced]. Each mode is bit-identical to
   itself at every [jobs] value (same chunk streams, same ordered
   reduction), but the two modes consume the chunk streams differently
   and so draw different possible graphs from the same seed: estimates
   agree statistically, not bitwise, across modes. *)
type kernel_mode = Flat | Bitsliced

let kernel_mode_name = function Flat -> "flat" | Bitsliced -> "bitsliced"

let kernel_modes = [ Flat; Bitsliced ]

let kernel_mode_of_name s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun k -> kernel_mode_name k = s) kernel_modes

(* The one validator: terminals against the vertex count [n], then the
   budgets ([Chunked] streams have no sample budget up front). *)
let validate ?samples ~n ~jobs terminals =
  if terminals = [] then invalid_arg "Mcsampling: empty terminal set";
  let seen = Hashtbl.create (List.length terminals) in
  List.iter
    (fun t ->
      if t < 0 || t >= n then
        invalid_arg (Printf.sprintf "Mcsampling: terminal %d out of range [0,%d)" t n);
      if Hashtbl.mem seen t then
        invalid_arg (Printf.sprintf "Mcsampling: duplicate terminal %d" t);
      Hashtbl.add seen t ())
    terminals;
  (match samples with
  | Some s when s <= 0 -> invalid_arg "Mcsampling: samples <= 0"
  | _ -> ());
  if jobs <= 0 then invalid_arg "Mcsampling: jobs <= 0"

(* The [k < 2] answer needs no sampling, and the estimate says so:
   nothing was drawn, nothing hit, nothing deduplicated — only [value]
   and the domain budget carry information. *)
let trivial_estimate ~jobs value =
  { value; samples_used = 0; hits = 0; distinct = 0; variance_estimate = 0.;
    jobs_used = Par.effective_jobs jobs; chunk_samples = [||] }

(* Draw one possible graph into [present]; returns its probability.
   Reference path only — the hot loops draw through Kernel. *)
let draw_sample rng g present =
  let prob = ref Xprob.one in
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) ->
      if Prng.bernoulli rng e.p then begin
        present.(eid) <- true;
        prob := Xprob.scale e.p !prob
      end
      else begin
        present.(eid) <- false;
        prob := Xprob.scale (1. -. e.p) !prob
      end)
    g;
  !prob

(* The 62-bit content hash that identifies a sampled possible graph for
   the HT dedup. Packed-word mixing (Hash64) replaced a per-bool FNV-1a
   whose 32-bit prime only diffused bits upward; the old hash admitted
   structured collision pairs that silently merged distinct possible
   graphs (see the regression test in test_core.ml). *)
let mask_hash present m = Hash64.mask present m

(* pi_i = 1 - (1 - q)^s, and the HT weight q / pi_i, computed stably
   from log q (natural log), which survives probabilities far below
   float range. For q -> 0 the weight tends to 1/s; it is 1 at q = 1.
   Shared by Sampling(HT) and the S2BDD descent estimator — the two
   call sites previously carried divergent underflow thresholds. *)
let ht_weight ~logq ~n =
  let nf = float_of_int n in
  if logq >= 0. then 1.
  else if logq < -690. then 1. /. nf (* exp would underflow below ~1e-300 *)
  else
    let q = Float.exp logq in
    let pi = -.Float.expm1 (nf *. Float.log1p (-.q)) in
    if pi <= 0. then 1. /. nf else q /. pi

let ln2 = Float.log 2.
let ht_weight_x q_x s = ht_weight ~logq:(Xprob.log2 q_x *. ln2) ~n:s

(* The per-chunk master streams, split in chunk order from the seed:
   stream [i] belongs to chunk [i] no matter which domain runs it. *)
let chunk_streams ~seed n =
  let master = Prng.create seed in
  Array.init n (fun _ -> Prng.split master)

(* The 95% interval an estimate carries. Wald
   (value ± 1.96 sqrt(variance)) collapsed to a zero-width interval
   whenever hits ∈ {0, n} — a false certificate in exactly the
   high-reliability regime — so the reported bounds are the Wilson
   score interval on (value, n) instead; the raw Wald variance stays
   available in [variance_estimate] and under the
   [sampling.wald_variance] Obs gauge. The trivial k < 2 answer drew
   nothing and is exact, so it reports the point interval. *)
let interval ?z ?(method_ = Relstats.Wilson) (e : estimate) =
  if e.samples_used = 0 then (e.value, e.value)
  else Relstats.interval ?z method_ ~phat:e.value ~n:e.samples_used

let emit_estimate trace (e : estimate) =
  if Trace.enabled trace then begin
    let lower, upper = interval e in
    Trace.instant trace "estimate"
      ~args:
        [
          ("value", Float e.value);
          ("lower", Float lower);
          ("upper", Float upper);
          ("samples", Int e.samples_used);
        ]
  end;
  e

(* Per-chunk sampling loops, one per kernel mode. The flat bodies are
   the original inner loops verbatim (the bit-identity contract with
   [Reference] rests on them); the bit-sliced bodies draw batches of
   [Prng.Bitbatch.lanes] worlds per pass, masking the ragged last
   batch to its live lanes — the full-width draw always runs, so a
   chunk's stream consumption is independent of how the batch
   boundaries land. *)

(* Worker-local instrumentation for one chunk: an early-exit-depth
   histogram filled on the worker and merged exactly (bucket-count
   addition) on the calling thread, plus the chunk's GC delta. Both
   are [None]/zero when the observer is disabled, preserving the
   zero-overhead contract; GC measurement is additionally pinned off
   under NETREL_FAKE_CLOCK so documents stay byte-stable. *)
let chunk_depth o =
  if Obs.enabled o then Some (Metrics.Histogram.create ()) else None

let depth_record depth sc =
  match depth with
  | None -> ()
  | Some h -> Metrics.Histogram.record h (Kernel.union_steps sc)

let chunk_gc_begin o =
  if Obs.enabled o && Obs.gc_counters_live () then
    Some (Metrics.Gcstat.snapshot ())
  else None

let chunk_gc_end = function
  | None -> Metrics.Gcstat.zero
  | Some before ->
      Metrics.Gcstat.delta ~before ~after:(Metrics.Gcstat.snapshot ())

(* Fold one chunk's instrumentation into the sampling observer (main
   thread, chunk order). *)
let chunk_obs o dt depth gd =
  Obs.record_span o "chunk" dt;
  Obs.hist_seconds o "hist.chunk_ns" dt;
  (match depth with
  | None -> ()
  | Some h -> Obs.hist_merge o "hist.early_exit_depth" h);
  Obs.record_gc o "gc" gd

let sampling_obs obs ~estimator ~kernel =
  let o = Obs.sub obs "sampling" in
  Obs.text o "estimator" estimator;
  Obs.text o "kernel.mode" (kernel_mode_name kernel);
  o

let mc_chunk_flat depth csr term_arr rng len =
  let sc = Kernel.scratch () in
  let hits = ref 0 in
  for _ = 1 to len do
    Kernel.draw sc csr rng;
    if Kernel.connected_terminals sc csr term_arr then incr hits;
    depth_record depth sc
  done;
  !hits

let mc_chunk_bitsliced depth csr term_arr rng len =
  let sc = Kernel.scratch () in
  let hits = ref 0 in
  let remaining = ref len in
  while !remaining > 0 do
    let batch = min !remaining Prng.Bitbatch.lanes in
    Kernel.draw_bitsliced sc csr rng;
    let active =
      if batch = Prng.Bitbatch.lanes then Prng.Bitbatch.all
      else (1 lsl batch) - 1
    in
    hits :=
      !hits
      + Prng.Bitbatch.popcount
          (Kernel.connected_lanes sc csr term_arr ~active);
    depth_record depth sc;
    remaining := !remaining - batch
  done;
  !hits

(* HT stage 1: each chunk dedups its own draws into a table
   hash -> (probability, connected) over the chunk's distinct masks
   (sized by the chunk length — the only masks it can hold), plus their
   first-occurrence order in a flat array, so the ordered merge in
   [Chunked.ht_estimate] is deterministic by construction rather than by
   hash-table layout. Connectivity runs once per chunk-distinct mask.
   Both kernels produce the same shape, so the merge and the weighted
   fold are mode-independent; the world hashes agree across modes on
   equal masks (both replay the Hash64.mask digest), so dedup semantics
   are identical and only the sampled worlds differ. *)
type ht_chunk = {
  hc_tab : (int, Xprob.t * bool) Hashtbl.t;
  hc_order : int array;
  hc_n_order : int;
}

let ht_chunk_flat depth csr term_arr rng len =
  let sc = Kernel.scratch () in
  let seen : (int, Xprob.t * bool) Hashtbl.t = Hashtbl.create len in
  let order = Array.make len 0 in
  let n_order = ref 0 in
  for _ = 1 to len do
    let prob = Kernel.draw_prob sc csr rng in
    let h = Kernel.mask_hash sc in
    if not (Hashtbl.mem seen h) then begin
      let connected = Kernel.connected_terminals sc csr term_arr in
      depth_record depth sc;
      Hashtbl.add seen h (prob, connected);
      order.(!n_order) <- h;
      incr n_order
    end
  done;
  { hc_tab = seen; hc_order = order; hc_n_order = !n_order }

let ht_chunk_bitsliced depth csr term_arr rng len =
  let sc = Kernel.scratch () in
  let seen : (int, Xprob.t * bool) Hashtbl.t = Hashtbl.create len in
  let order = Array.make len 0 in
  let n_order = ref 0 in
  let remaining = ref len in
  while !remaining > 0 do
    let batch = min !remaining Prng.Bitbatch.lanes in
    Kernel.draw_bitsliced sc csr rng;
    Kernel.transpose_worlds sc;
    for lane = 0 to batch - 1 do
      let h = Kernel.world_hash sc ~lane in
      if not (Hashtbl.mem seen h) then begin
        let prob = Kernel.world_prob sc csr ~lane in
        let connected = Kernel.connected_lane sc csr term_arr ~lane in
        depth_record depth sc;
        Hashtbl.add seen h (prob, connected);
        order.(!n_order) <- h;
        incr n_order
      end
    done;
    remaining := !remaining - batch
  done;
  { hc_tab = seen; hc_order = order; hc_n_order = !n_order }

(* ------------------------------------------------------------------ *)
(* The chunk loop: incremental rounds                                   *)
(* ------------------------------------------------------------------ *)

(* Every sampler draws through this module. A stream retains the master
   generator and splits one fresh stream per chunk as rounds are
   scheduled, in global chunk order — so a single round of [n] chunks
   uses exactly the streams [chunk_streams ~seed n] would, and a
   fixed-budget run is a one-round stream. Sequential stopping
   (lib/adaptive) draws rounds until a CI target is met; its chunk
   boundaries follow the round schedule rather than one balanced
   partition. A run is therefore replayable from [(seed, round
   schedule)], and since the schedule is itself a deterministic function
   of the observed hit counts, from [(seed, ci_width, max_samples)]
   alone; [jobs] only places chunks on domains and never affects which
   streams exist or the fold order. *)
module Chunked = struct
  (* ['acc] is what rounds fold into: the hit count for MC, the
     per-chunk dedup tables (most recent first) for HT. *)
  type 'acc t = {
    csr : Kernel.Csr.t;
    terms : int array;
    kernel : kernel_mode;
    master : Prng.t;
    jobs : int;
    o : Obs.t;
    trace : Trace.t;
    mutable samples : int;
    mutable chunks : int;
    mutable schedule : int list; (* chunk lengths, most recent first *)
    mutable acc : 'acc;
  }

  type mc = int t
  type ht = ht_chunk list t

  (* Unvalidated: the creators below and the fixed-budget samplers
     validate first. *)
  let start ~o ~trace ~seed ~jobs ~kernel csr ~terminals acc =
    {
      csr;
      terms = Array.of_list terminals;
      kernel;
      master = Prng.create seed;
      jobs;
      o;
      trace;
      samples = 0;
      chunks = 0;
      schedule = [];
      acc;
    }

  let create ~obs ~trace ~seed ~jobs ~kernel ~estimator csr ~terminals acc =
    validate ~n:(Kernel.Csr.n_vertices csr) ~jobs terminals;
    if List.length terminals < 2 then
      invalid_arg "Mcsampling.Chunked: fewer than 2 terminals (trivial case)";
    start
      ~o:(sampling_obs obs ~estimator ~kernel)
      ~trace ~seed ~jobs ~kernel csr ~terminals acc

  (* One round, parameterised by the chunk body: split the new chunks'
     streams off the retained master (in chunk order, before any chunk
     runs), dispatch on the pool, then fold results, instrumentation and
     per-task trace buffers back in chunk order. [fold] sees chunk
     results in sample order, so every reduction — integer hits or HT's
     first-occurrence merge — is deterministic by construction. *)
  let round t ~samples ~name ~body ~args ~init ~fold =
    if samples <= 0 then invalid_arg "Mcsampling.Chunked: samples <= 0";
    let chunks =
      Par.chunks ~total:samples
        ~target:(chunk_target_for ~edges:(Kernel.Csr.n_edges t.csr))
    in
    let n = Array.length chunks in
    let rngs = Array.init n (fun _ -> Prng.split t.master) in
    let lanes = Par.effective_jobs t.jobs in
    let base = t.chunks in
    let t_kernel = Obs.now t.o in
    let results =
      Par.run_jobs ~jobs:t.jobs n (fun i ->
          let tr = Trace.task t.trace ~lane:(i mod lanes) in
          let ts = Trace.now tr in
          let t0 = Obs.now t.o in
          let depth = chunk_depth t.o in
          let g0 = chunk_gc_begin t.o in
          let _, len = chunks.(i) in
          let r = body depth t.csr t.terms rngs.(i) len in
          Trace.complete tr ~ts name
            ~args:
              (("chunk", Trace.Int (base + i))
              :: ("samples", Trace.Int len)
              :: args r len);
          (r, Obs.now t.o -. t0, depth, chunk_gc_end g0, tr))
    in
    Obs.record_span t.o "kernel.elapsed" (Obs.now t.o -. t_kernel);
    let acc =
      Array.fold_left
        (fun acc (r, dt, depth, gd, tr) ->
          chunk_obs t.o dt depth gd;
          Trace.merge ~into:t.trace tr;
          fold acc r)
        init results
    in
    t.samples <- t.samples + samples;
    t.chunks <- t.chunks + n;
    Array.iter (fun (_, len) -> t.schedule <- len :: t.schedule) chunks;
    Obs.add t.o "samples" samples;
    Obs.add t.o "kernel.samples" samples;
    acc

  let estimate_of t ~value ~hits ~distinct ~variance_estimate =
    emit_estimate t.trace
      {
        value;
        samples_used = t.samples;
        hits;
        distinct;
        variance_estimate;
        jobs_used = Par.effective_jobs t.jobs;
        chunk_samples = Array.of_list (List.rev t.schedule);
      }

  let mc_create ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?(seed = 1)
      ?(jobs = 1) ?(kernel = Flat) csr ~terminals =
    create ~obs ~trace ~seed ~jobs ~kernel ~estimator:"mc" csr ~terminals 0

  let mc_draw t ~samples =
    let body =
      match t.kernel with Flat -> mc_chunk_flat | Bitsliced -> mc_chunk_bitsliced
    in
    let hits =
      round t ~samples ~name:"mc.chunk" ~body
        ~args:(fun h _ -> [ ("hits", Trace.Int h) ])
        ~init:0 ~fold:( + )
    in
    t.acc <- t.acc + hits;
    Obs.add t.o "hits" hits;
    Obs.add t.o "connectivity_checks" samples

  let mc_samples t = t.samples
  let mc_hits t = t.acc

  let mc_estimate t =
    if t.samples = 0 then
      invalid_arg "Mcsampling.Chunked.mc_estimate: no samples drawn";
    let value = float_of_int t.acc /. float_of_int t.samples in
    let variance_estimate = value *. (1. -. value) /. float_of_int t.samples in
    Obs.gauge t.o "wald_variance" variance_estimate;
    estimate_of t ~value ~hits:t.acc ~distinct:0 ~variance_estimate

  (* HT weights depend on the final total n (pi = 1 - (1-q)^n), so the
     stream keeps every chunk's dedup table and replays the ordered
     merge and the weighted fold at each [ht_estimate]. *)
  let ht_create ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?(seed = 1)
      ?(jobs = 1) ?(kernel = Flat) csr ~terminals =
    create ~obs ~trace ~seed ~jobs ~kernel ~estimator:"ht" csr ~terminals []

  let ht_draw t ~samples =
    let body =
      match t.kernel with Flat -> ht_chunk_flat | Bitsliced -> ht_chunk_bitsliced
    in
    t.acc <-
      round t ~samples ~name:"ht.chunk" ~body
        ~args:(fun hc len ->
          [
            ("unique", Trace.Int (Hashtbl.length hc.hc_tab));
            ("drawn", Trace.Int len);
          ])
        ~init:t.acc
        ~fold:(fun acc hc ->
          Obs.hist t.o "hist.dedup_occupancy" hc.hc_n_order;
          hc :: acc)

  let ht_samples t = t.samples

  let ht_estimate t =
    if t.samples = 0 then
      invalid_arg "Mcsampling.Chunked.ht_estimate: no samples drawn";
    let samples = t.samples in
    let tables = List.rev t.acc in
    (* Ordered merge: keep the first occurrence of every hash across the
       chunk tables in chunk order — exactly what a sequential single
       pass over all samples would keep, since chunk order is sample
       order. The surviving entries, enumerated in global
       first-occurrence order, drive the pi-weighted sum, so the float
       accumulation order is fixed. The sum of per-chunk distinct counts
       bounds the merged count, so one exact-capacity array
       (cursor-filled) holds the entries and sizes the dedup table. *)
    let entries, n_entries =
      Trace.span t.trace "ht.merge" @@ fun () ->
      Obs.time t.o "merge" @@ fun () ->
      let bound =
        List.fold_left (fun acc hc -> acc + hc.hc_n_order) 0 tables
      in
      let merged : (int, unit) Hashtbl.t = Hashtbl.create bound in
      let entries = Array.make (max bound 1) (Xprob.one, false) in
      let cursor = ref 0 in
      List.iter
        (fun hc ->
          for j = 0 to hc.hc_n_order - 1 do
            let h = hc.hc_order.(j) in
            if not (Hashtbl.mem merged h) then begin
              Hashtbl.add merged h ();
              entries.(!cursor) <- Hashtbl.find hc.hc_tab h;
              incr cursor
            end
          done)
        tables;
      (entries, !cursor)
    in
    (* One pass over the merged entries with one accumulator per
       quantity, each folding in entry order. The correction is the
       Equation-(8) term subtracting the squared sample probabilities of
       connected samples. *)
    let s_f = float_of_int samples in
    let hits = ref 0 in
    let value = ref 0. in
    let correction = ref 0. in
    for j = 0 to n_entries - 1 do
      let q, connected = entries.(j) in
      if connected then begin
        incr hits;
        value := !value +. ht_weight_x q samples;
        correction :=
          !correction +. ((s_f -. 1.) *. Xprob.to_float_approx (Xprob.mul q q))
      end
    done;
    let hits = !hits and value = !value and correction = !correction in
    let v = (value *. (1. -. value) /. s_f) -. (correction /. (2. *. s_f)) in
    (* The plug-in can go negative (the correction is only an estimate
       of the covariance term); the clamp keeps the reported variance
       usable, but the event itself is worth knowing about. *)
    if v < 0. then begin
      Obs.incr t.o "variance_clamped";
      Obs.gauge t.o "raw_variance" v
    end;
    Obs.gauge t.o "dedup_ratio" (float_of_int n_entries /. s_f);
    Obs.gauge t.o "wald_variance" (Float.max 0. v);
    estimate_of t ~value ~hits ~distinct:n_entries
      ~variance_estimate:(Float.max 0. v)
end

(* ------------------------------------------------------------------ *)
(* Fixed budget: one round                                              *)
(* ------------------------------------------------------------------ *)

(* A fixed-budget run is one [Chunked] round followed by its estimate:
   same chunk layout, same streams (split in chunk order from a fresh
   master, as [chunk_streams] does), same ordered fold — so the result
   is the incremental stream's, bit for bit. The wrapper adds what a
   stream has no use for: the up-front budget validation, the k < 2
   answer and the [total] timer. *)
let fixed ~obs ~trace ~jobs ~kernel ~estimator csr ~terminals ~samples run =
  validate ~samples ~n:(Kernel.Csr.n_vertices csr) ~jobs terminals;
  let o = sampling_obs obs ~estimator ~kernel in
  if List.length terminals < 2 then begin
    Obs.incr o "trivial";
    emit_estimate trace (trivial_estimate ~jobs 1.)
  end
  else Obs.time o "total" (fun () -> run o)

let monte_carlo_csr ?(obs = Obs.disabled) ?(trace = Trace.disabled) ?(seed = 1)
    ?(jobs = 1) ?(kernel = Flat) csr ~terminals ~samples =
  fixed ~obs ~trace ~jobs ~kernel ~estimator:"mc" csr ~terminals ~samples
  @@ fun o ->
  let t = Chunked.start ~o ~trace ~seed ~jobs ~kernel csr ~terminals 0 in
  Chunked.mc_draw t ~samples;
  Chunked.mc_estimate t

let horvitz_thompson_csr ?(obs = Obs.disabled) ?(trace = Trace.disabled)
    ?(seed = 1) ?(jobs = 1) ?(kernel = Flat) csr ~terminals ~samples =
  fixed ~obs ~trace ~jobs ~kernel ~estimator:"ht" csr ~terminals ~samples
  @@ fun o ->
  let t = Chunked.start ~o ~trace ~seed ~jobs ~kernel csr ~terminals [] in
  Chunked.ht_draw t ~samples;
  let e = Chunked.ht_estimate t in
  (* Once per run: a stream may be estimated after every round. *)
  Obs.add o "hits" e.hits;
  Obs.add o "distinct" e.distinct;
  Obs.add o "connectivity_checks" e.distinct;
  e

(* The graph entry points keep the graph's own terminal messages.
   [?csr] lets a caller holding a prebuilt snapshot (the engine's
   per-graph cache) skip reconstruction; the Csr is a pure function of
   [g], so a cached snapshot cannot change any estimate. *)
let csr_of ?csr g = match csr with Some c -> c | None -> Kernel.Csr.of_graph g

let monte_carlo ?obs ?trace ?seed ?jobs ?kernel ?csr g ~terminals ~samples =
  Ugraph.validate_terminals g terminals;
  monte_carlo_csr ?obs ?trace ?seed ?jobs ?kernel (csr_of ?csr g) ~terminals
    ~samples

let horvitz_thompson ?obs ?trace ?seed ?jobs ?kernel ?csr g ~terminals
    ~samples =
  Ugraph.validate_terminals g terminals;
  horvitz_thompson_csr ?obs ?trace ?seed ?jobs ?kernel (csr_of ?csr g)
    ~terminals ~samples

(* ------------------------------------------------------------------ *)
(* Retained reference implementation                                   *)
(* ------------------------------------------------------------------ *)

(* The pre-kernel sampling path, kept as the differential oracle for
   the flat kernels: boxed-edge iteration into a [bool array] mask,
   full-reset union-find over every present edge
   (Connectivity.terminals_connected_dsu), bool-array mask hashing, and
   the list-accumulating HT merge. Sequential (chunk loop on the
   calling domain) but chunked and split-streamed exactly like the
   kernel path, so for a fixed seed the estimates must be BIT-IDENTICAL
   to monte_carlo / horvitz_thompson at every jobs value. The kernel
   equivalence qcheck suite (test_kernel.ml), the bench `kernels`
   section, and the selfcheck oracle sweep all compare against this
   module. *)
module Reference = struct
  let monte_carlo ?(seed = 1) g ~terminals ~samples =
    validate ~samples ~n:(Ugraph.n_vertices g) ~jobs:1 terminals;
    if List.length terminals < 2 then trivial_estimate ~jobs:1 1.
    else begin
      let m = Ugraph.n_edges g in
      let n = Ugraph.n_vertices g in
      let chunks = Par.chunks ~total:samples ~target:(chunk_target_for ~edges:m) in
      let rngs = chunk_streams ~seed (Array.length chunks) in
      let present = Array.make m false in
      let dsu = Dsu.create n in
      let hits = ref 0 in
      Array.iteri
        (fun i (_, len) ->
          let rng = rngs.(i) in
          for _ = 1 to len do
            Ugraph.iter_edges
              (fun eid (e : Ugraph.edge) ->
                present.(eid) <- Prng.bernoulli rng e.p)
              g;
            if Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present
                 terminals
            then incr hits
          done)
        chunks;
      let hits = !hits in
      let value = float_of_int hits /. float_of_int samples in
      {
        value;
        samples_used = samples;
        hits;
        distinct = 0;
        variance_estimate = value *. (1. -. value) /. float_of_int samples;
        jobs_used = Par.effective_jobs 1;
        chunk_samples = Array.map snd chunks;
      }
    end

  let horvitz_thompson ?(seed = 1) g ~terminals ~samples =
    validate ~samples ~n:(Ugraph.n_vertices g) ~jobs:1 terminals;
    if List.length terminals < 2 then trivial_estimate ~jobs:1 1.
    else begin
      let m = Ugraph.n_edges g in
      let n = Ugraph.n_vertices g in
      let chunks = Par.chunks ~total:samples ~target:(chunk_target_for ~edges:m) in
      let rngs = chunk_streams ~seed (Array.length chunks) in
      let present = Array.make m false in
      let dsu = Dsu.create n in
      let chunk_tables =
        Array.mapi
          (fun i (_, len) ->
            let rng = rngs.(i) in
            let seen : (int, Xprob.t * bool) Hashtbl.t = Hashtbl.create len in
            let order = ref [] in
            for _ = 1 to len do
              let prob = draw_sample rng g present in
              let h = mask_hash present m in
              if not (Hashtbl.mem seen h) then begin
                let connected =
                  Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present
                    terminals
                in
                Hashtbl.add seen h (prob, connected);
                order := h :: !order
              end
            done;
            (seen, List.rev !order))
          chunks
      in
      let entries =
        let merged : (int, unit) Hashtbl.t = Hashtbl.create samples in
        let entries = ref [] in
        Array.iter
          (fun (tab, order) ->
            List.iter
              (fun h ->
                if not (Hashtbl.mem merged h) then begin
                  Hashtbl.add merged h ();
                  entries := Hashtbl.find tab h :: !entries
                end)
              order)
          chunk_tables;
        List.rev !entries
      in
      let hits =
        List.fold_left
          (fun acc (_, connected) -> if connected then acc + 1 else acc)
          0 entries
      in
      let value =
        List.fold_left
          (fun acc (q, connected) ->
            if connected then acc +. ht_weight_x q samples else acc)
          0. entries
      in
      let s_f = float_of_int samples in
      let correction =
        List.fold_left
          (fun acc (q, connected) ->
            if connected then
              acc +. ((s_f -. 1.) *. Xprob.to_float_approx (Xprob.mul q q))
            else acc)
          0. entries
      in
      let v = (value *. (1. -. value) /. s_f) -. (correction /. (2. *. s_f)) in
      {
        value;
        samples_used = samples;
        hits;
        distinct = List.length entries;
        variance_estimate = Float.max 0. v;
        jobs_used = Par.effective_jobs 1;
        chunk_samples = Array.map snd chunks;
      }
    end
end
