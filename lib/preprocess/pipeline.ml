module BT = Graphalgo.Blocktree

type subproblem = {
  graph : Ugraph.t;
  terminals : int list;
}

type stats = {
  original_vertices : int;
  original_edges : int;
  pruned_vertices : int;
  pruned_edges : int;
  n_bridges : int;
  n_subproblems : int;
  final_edges : int;
  max_subproblem_edges : int;
  transform_rounds : int;
}

type outcome =
  | Trivial of Xprob.t
  | Reduced of {
      pb : Xprob.t;
      subproblems : subproblem list;
      stats : stats;
    }

let reduction_ratio st =
  if st.original_edges = 0 then 0.
  else float_of_int st.max_subproblem_edges /. float_of_int st.original_edges

(* A subproblem before its transform: [n] vertices and the edges
   [(eu.(i), ev.(i), ep.(i))] in input edge order. *)
type raw = {
  n : int;
  eu : int array;
  ev : int array;
  ep : float array;
  raw_terminals : int list;
}

type decomposition = {
  pb : Xprob.t;
  n_bridges : int;
  pruned_vertices : int;
  pruned_edges : int;
  raws : raw list;
}

(* Decompose the Steiner-pruned graph at its bridges without building
   it. The prune keeps whole 2-edge-connected components (supernodes
   [keep]), so the pruned graph's bridges are the input's bridges
   between kept supernodes and its bridge-free components are the kept
   supernodes themselves. Bridge endpoints become mandatory terminals
   of their side (Lemma 5.1); [pb] folds the kept bridges in edge-id
   order. One subproblem per kept supernode holding at least two
   mandatory terminals, in ascending order of its smallest vertex (the
   order supernodes are numbered in); its vertices are numbered by rank
   and its edges taken in input edge order, all through counting-sorted
   int arrays. *)
let decompose (g : Ugraph.t) (bt : BT.t) keep terminals =
  let n = g.n and m = g.m in
  let comp = bt.BT.comp_of_vertex and nc = bt.BT.n_comps in
  let must_connect = Array.make n false in
  List.iter (fun t -> must_connect.(t) <- true) terminals;
  (* Bucket sizes per kept supernode (shifted by one for the prefix
     sums), the kept bridges on the way. *)
  let vstart = Array.make (nc + 1) 0 and estart = Array.make (nc + 1) 0 in
  let pb = ref Xprob.one and n_bridges = ref 0 in
  for eid = 0 to m - 1 do
    let u = g.eu.(eid) and v = g.ev.(eid) in
    let c = comp.(u) in
    if keep.(c) then
      if not bt.BT.is_bridge.(eid) then estart.(c + 1) <- estart.(c + 1) + 1
      else if keep.(comp.(v)) then begin
        incr n_bridges;
        pb := Xprob.mul !pb (Xprob.of_float g.ep.(eid));
        must_connect.(u) <- true;
        must_connect.(v) <- true
      end
  done;
  for v = 0 to n - 1 do
    let c = comp.(v) in
    if keep.(c) then vstart.(c + 1) <- vstart.(c + 1) + 1
  done;
  for c = 1 to nc do
    vstart.(c) <- vstart.(c) + vstart.(c - 1);
    estart.(c) <- estart.(c) + estart.(c - 1)
  done;
  (* Members in increasing id, each vertex's rank within its supernode,
     and the supernodes' edges in increasing id. *)
  let members = Array.make vstart.(nc) 0 and rank = Array.make n 0 in
  let cursor = Array.sub vstart 0 nc in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    if keep.(c) then begin
      members.(cursor.(c)) <- v;
      rank.(v) <- cursor.(c) - vstart.(c);
      cursor.(c) <- cursor.(c) + 1
    end
  done;
  let edges = Array.make estart.(nc) 0 in
  Array.blit estart 0 cursor 0 nc;
  for eid = 0 to m - 1 do
    let c = comp.(g.eu.(eid)) in
    if keep.(c) && not bt.BT.is_bridge.(eid) then begin
      edges.(cursor.(c)) <- eid;
      cursor.(c) <- cursor.(c) + 1
    end
  done;
  let raws = ref [] in
  for c = nc - 1 downto 0 do
    if keep.(c) then begin
      let ts = ref [] in
      for j = vstart.(c + 1) - 1 downto vstart.(c) do
        if must_connect.(members.(j)) then ts := (j - vstart.(c)) :: !ts
      done;
      match !ts with
      | _ :: _ :: _ ->
        let first = estart.(c) in
        let mc = estart.(c + 1) - first in
        let eu = Array.make mc 0 and ev = Array.make mc 0 and ep = Array.make mc 0. in
        for j = 0 to mc - 1 do
          let eid = edges.(first + j) in
          eu.(j) <- rank.(g.eu.(eid));
          ev.(j) <- rank.(g.ev.(eid));
          ep.(j) <- g.ep.(eid)
        done;
        raws :=
          { n = vstart.(c + 1) - vstart.(c); eu; ev; ep; raw_terminals = !ts }
          :: !raws
      | _ -> ()
    end
  done;
  {
    pb = !pb;
    n_bridges = !n_bridges;
    pruned_vertices = vstart.(nc);
    pruned_edges = estart.(nc) + !n_bridges;
    raws = !raws;
  }

(* Whether the terminals of a transformed subproblem are topologically
   connected. With at least two distinct terminals this also rules out
   an isolated terminal. *)
let terminals_connected sp =
  let g = sp.graph in
  Graphalgo.Connectivity.terminals_connected_dsu
    (Dsu.create (Ugraph.n_vertices g))
    g
    ~present:(Array.make (Ugraph.n_edges g) true)
    sp.terminals

(* Record the per-phase reduction account under "preprocess.". *)
let observe_stats o st =
  Obs.add o "original_vertices" st.original_vertices;
  Obs.add o "original_edges" st.original_edges;
  Obs.add o "pruned_vertices" st.pruned_vertices;
  Obs.add o "pruned_edges" st.pruned_edges;
  Obs.add o "bridges" st.n_bridges;
  Obs.add o "subproblems" st.n_subproblems;
  Obs.add o "final_edges" st.final_edges;
  Obs.add o "transform_rounds" st.transform_rounds;
  Obs.gauge o "reduction_ratio" (reduction_ratio st)

let run ?(obs = Obs.disabled) ?(trace = Trace.disabled) g ~terminals =
  Ugraph.validate_terminals g terminals;
  let o = Obs.sub obs "preprocess" in
  let t_pre = Trace.now trace in
  (* Every return path closes the covering "preprocess" span, so traces
     carry the outcome even when the pipeline resolves trivially. *)
  let finish outcome extra =
    Trace.complete trace ~ts:t_pre "preprocess"
      ~args:(("outcome", Trace.Str outcome) :: extra)
  in
  let trivial label x =
    Obs.text o "outcome" label;
    finish label [];
    Trivial x
  in
  if List.length terminals < 2 then trivial "trivial_one" Xprob.one
  else if List.exists (fun t -> Ugraph.degree g t = 0) terminals then
    trivial "trivial_zero" Xprob.zero
  else begin
    (* Allocation accounting covers the whole non-trivial pipeline: the
       trivial returns above never build intermediate graphs, so their
       GC deltas would only be noise. *)
    let emit =
      if Trace.enabled trace then
        Some (fun k v -> Trace.counter trace ("preprocess." ^ k) v)
      else None
    in
    Obs.gc_phase o ?emit "gc" @@ fun () ->
    (* Prune: restrict to the Steiner subtree of the block tree. *)
    let pruned_opt =
      Trace.span trace "prune" @@ fun () ->
      Obs.time o "prune" @@ fun () ->
      let bt = BT.build g ~terminals in
      if BT.terminals_separated bt then None else Some (bt, BT.steiner_keep bt)
    in
    match pruned_opt with
    | None -> trivial "trivial_zero" Xprob.zero
    | Some (bt, keep) ->
      (* Decompose at the surviving bridges. *)
      let d =
        Trace.span trace "decompose" @@ fun () ->
        Obs.time o "decompose" @@ fun () -> decompose g bt keep terminals
      in
      (* Transform each subproblem. *)
      let rounds = ref 0 in
      let subproblems =
        Trace.span trace "transform" @@ fun () ->
        Obs.time o "transform" @@ fun () ->
        List.filter_map
          (fun r ->
            let tr =
              Transform.run_arrays ~n:r.n ~eu:r.eu ~ev:r.ev ~ep:r.ep
                ~terminals:r.raw_terminals
            in
            rounds := !rounds + tr.Transform.rounds;
            if List.length tr.Transform.terminals < 2 then None
            else
              Some { graph = tr.Transform.graph; terminals = tr.Transform.terminals })
          d.raws
      in
      (* A transform can only disconnect the terminals if they never
         were connected; the Steiner prune precludes that, but check. *)
      if not (List.for_all terminals_connected subproblems) then
        trivial "trivial_zero" Xprob.zero
      else begin
        let final_edges =
          List.fold_left (fun acc sp -> acc + Ugraph.n_edges sp.graph) 0 subproblems
        in
        let max_sub =
          List.fold_left (fun acc sp -> max acc (Ugraph.n_edges sp.graph)) 0 subproblems
        in
        let stats =
          {
            original_vertices = Ugraph.n_vertices g;
            original_edges = Ugraph.n_edges g;
            pruned_vertices = d.pruned_vertices;
            pruned_edges = d.pruned_edges;
            n_bridges = d.n_bridges;
            n_subproblems = List.length subproblems;
            final_edges;
            max_subproblem_edges = max_sub;
            transform_rounds = !rounds;
          }
        in
        Obs.text o "outcome" "reduced";
        observe_stats o stats;
        finish "reduced"
          [
            ("subproblems", Trace.Int stats.n_subproblems);
            ("bridges", Trace.Int stats.n_bridges);
            ("final_edges", Trace.Int stats.final_edges);
          ];
        Reduced { pb = d.pb; subproblems; stats }
      end
  end
