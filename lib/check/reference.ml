(* The pre-kernel sampling and descent paths, kept as the differential
   oracle for the production kernels. See reference.mli. *)

module F = Bddbase.Fstate

let validate g ~terminals ~samples =
  Ugraph.validate_terminals g terminals;
  if samples <= 0 then invalid_arg "Check.Reference: samples <= 0"

(* The [k < 2] answer, as the production samplers report it. *)
let trivial =
  { Mcsampling.value = 1.; samples_used = 0; hits = 0; distinct = 0;
    variance_estimate = 0.; jobs_used = Par.effective_jobs 1;
    chunk_samples = [||] }

(* Draw one possible graph into [present]; returns its probability. *)
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

(* The per-chunk master streams, split in chunk order from the seed:
   stream [i] belongs to chunk [i], as in [Mcsampling.Chunked]. *)
let chunk_streams ~seed n =
  let master = Prng.create seed in
  Array.init n (fun _ -> Prng.split master)

let ln2 = Float.log 2.
let ht_weight_x q_x s = Mcsampling.ht_weight ~logq:(Xprob.log2 q_x *. ln2) ~n:s

let monte_carlo ?(seed = 1) g ~terminals ~samples =
  validate g ~terminals ~samples;
  if List.length terminals < 2 then trivial
  else begin
    let m = Ugraph.n_edges g in
    let n = Ugraph.n_vertices g in
    let chunks =
      Par.chunks ~total:samples ~target:(Mcsampling.chunk_target_for ~edges:m)
    in
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
      Mcsampling.value;
      samples_used = samples;
      hits;
      distinct = 0;
      variance_estimate = value *. (1. -. value) /. float_of_int samples;
      jobs_used = Par.effective_jobs 1;
      chunk_samples = Array.map snd chunks;
    }
  end

let horvitz_thompson ?(seed = 1) g ~terminals ~samples =
  validate g ~terminals ~samples;
  if List.length terminals < 2 then trivial
  else begin
    let m = Ugraph.n_edges g in
    let n = Ugraph.n_vertices g in
    let chunks =
      Par.chunks ~total:samples ~target:(Mcsampling.chunk_target_for ~edges:m)
    in
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
            let h = Hash64.mask present m in
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
      Mcsampling.value;
      samples_used = samples;
      hits;
      distinct = List.length entries;
      variance_estimate = Float.max 0. v;
      jobs_used = Par.effective_jobs 1;
      chunk_samples = Array.map snd chunks;
    }
  end

let descend ctx ~eager ~pos st ~bernoulli =
  let m = F.n_positions ctx in
  let rec go pos st =
    if pos >= m then
      invalid_arg "Check.Reference.descend: reached the end without sinking"
    else
      let e = F.edge_at ctx pos in
      let exists = bernoulli e.Ugraph.p in
      match F.step ctx ~eager ~pos st ~exists with
      | F.Sink1 -> true
      | F.Sink0 -> false
      | F.Live st' -> go (pos + 1) st'
  in
  go pos st

(* Whether terminal [t] is an endpoint of an edge before [pos], i.e.
   has entered the frontier. *)
let entered ctx ~pos t =
  let rec go p =
    p < pos
    &&
    let e = F.edge_at ctx p in
    e.Ugraph.u = t || e.Ugraph.v = t || go (p + 1)
  in
  go 0

(* Complete the possible graph directly and run one union-find
   connectivity check. The node's explicit components are anchored to
   virtual DSU elements [n + comp_id]; implicit singletons need no
   anchor. The terminals to connect are the flagged components plus
   terminals that have not entered the frontier yet. The state is read
   through its exact key, [verts | comp_of | -1 | tc]. *)
let descend_union ctx g ~terminals ~dsu ~detail ~pos st ~bernoulli =
  let n = Ugraph.n_vertices g in
  let key = F.key_exact st in
  let rec sep i = if key.(i) < 0 then i else sep (i + 1) in
  let tc_base = sep 0 + 1 in
  let nv = (tc_base - 1) / 2 in
  let nc = Array.length key - tc_base in
  if Dsu.size dsu < n + nc then
    invalid_arg "Check.Reference.descend_union: DSU too small";
  Dsu.reset dsu;
  let m = F.n_positions ctx in
  (* Completion identity for the HT dedup: a full-avalanche 62-bit hash
     of the drawn edge outcomes (Hash64). *)
  let hs = Hash64.Stream.create () in
  let logq = ref 0. in
  if detail then
    (* HT needs the completion's identity and conditional probability. *)
    for p = pos to m - 1 do
      let e = F.edge_at ctx p in
      let pe = e.Ugraph.p in
      let exists = bernoulli pe in
      Hash64.Stream.add_bit hs exists;
      if exists then begin
        if pe < 1. then logq := !logq +. Float.log pe;
        ignore (Dsu.union dsu e.Ugraph.u e.Ugraph.v)
      end
      else logq := !logq +. Float.log1p (-.pe)
    done
  else
    for p = pos to m - 1 do
      let e = F.edge_at ctx p in
      if bernoulli e.Ugraph.p then ignore (Dsu.union dsu e.Ugraph.u e.Ugraph.v)
    done;
  for i = 0 to nv - 1 do
    ignore (Dsu.union dsu key.(i) (n + key.(nv + i)))
  done;
  let anchor = ref (-1) in
  let connected = ref true in
  let require x =
    if !anchor < 0 then anchor := Dsu.find dsu x
    else if Dsu.find dsu x <> !anchor then connected := false
  in
  for c = 0 to nc - 1 do
    if key.(tc_base + c) > 0 then require (n + c)
  done;
  List.iter (fun t -> if not (entered ctx ~pos t) then require t) terminals;
  (!connected, Hash64.Stream.finish hs, !logq)
