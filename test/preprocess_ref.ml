(* Reference copy of the list-based extension technique: the transform
   rounds over boxed (u, v, p) lists and the prune/decompose path
   through an explicit pruned graph, as the library computed them
   before it moved to flat arrays. Kept (without Obs/Trace) as the
   bit-identity oracle for Preprocess.Transform and
   Preprocess.Pipeline: same vertex numbering, same edge order and
   orientation, same float operations in the same order. *)

module T = Preprocess.Transform
module P = Preprocess.Pipeline

(* ---- transform ---- *)

(* One fixpoint round over a plain edge list (u, v, p), vertices in
   [0, n). Returns (edges', changed). The rewrites within a round are
   staged — loops, then parallels, then chains, then dangling
   vertices — so each stage works on the previous stage's output. *)
let round n is_terminal edges =
  let changed = ref false in
  (* Stage 1: drop self-loops. *)
  let edges =
    List.filter
      (fun (u, v, _) ->
        if u = v then begin
          changed := true;
          false
        end
        else true)
      edges
  in
  (* Stage 2: merge parallel edges in first-occurrence order of the
     packed vertex pair. *)
  let pair_fail : (int, float) Hashtbl.t = Hashtbl.create (List.length edges) in
  let pack u v = if u < v then (u lsl 31) lor v else (v lsl 31) lor u in
  let order = ref [] in
  List.iter
    (fun (u, v, p) ->
      let key = pack u v in
      match Hashtbl.find_opt pair_fail key with
      | None ->
        order := key :: !order;
        Hashtbl.add pair_fail key (1. -. p)
      | Some q ->
        changed := true;
        Hashtbl.replace pair_fail key (q *. (1. -. p)))
    edges;
  let edges =
    List.rev_map
      (fun key -> (key lsr 31, key land 0x7FFFFFFF, 1. -. Hashtbl.find pair_fail key))
      !order
  in
  (* Stage 3: contract chains through degree-2 non-terminal vertices. *)
  let edge_arr = Array.of_list edges in
  let m = Array.length edge_arr in
  let adj = Array.make n [] in
  Array.iteri
    (fun i (u, v, _) ->
      adj.(u) <- (i, v) :: adj.(u);
      adj.(v) <- (i, u) :: adj.(v))
    edge_arr;
  let deg = Array.map List.length adj in
  let eligible v = deg.(v) = 2 && not is_terminal.(v) in
  let edge_dead = Array.make m false in
  let visited = Array.make n false in
  let extra = ref [] in
  let walk start via0 =
    let rec go (eidx, w) p_acc =
      let _, _, p = edge_arr.(eidx) in
      edge_dead.(eidx) <- true;
      let p_acc = p_acc *. p in
      if w = start then `Cycle
      else if eligible w then begin
        visited.(w) <- true;
        match List.find_opt (fun (e', _) -> not edge_dead.(e')) adj.(w) with
        | Some next -> go next p_acc
        | None -> `End (w, p_acc)
      end
      else `End (w, p_acc)
    in
    go via0 1.0
  in
  for v = 0 to n - 1 do
    if eligible v && not visited.(v) then begin
      visited.(v) <- true;
      match adj.(v) with
      | [ e1; e2 ] -> (
        changed := true;
        match walk v e1 with
        | `Cycle -> ()
        | `End (a, pa) -> (
          match walk v e2 with
          | `Cycle -> assert false
          | `End (b, pb) -> extra := (a, b, pa *. pb) :: !extra))
      | _ -> assert false
    end
  done;
  let edges =
    !extra @ List.filteri (fun i _ -> not edge_dead.(i)) (Array.to_list edge_arr)
  in
  (* Stage 4: drop edges incident to dangling non-terminals. *)
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v, _) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let dangling v = (not is_terminal.(v)) && deg.(v) <= 1 in
  let edges =
    List.filter
      (fun (u, v, _) ->
        if (u <> v && dangling u) || (u <> v && dangling v) then begin
          changed := true;
          false
        end
        else true)
      edges
  in
  (edges, !changed)

let transform g ~terminals : T.result =
  Ugraph.validate_terminals g terminals;
  let n = Ugraph.n_vertices g in
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  let edges =
    Ugraph.fold_edges (fun acc _ (e : Ugraph.edge) -> (e.u, e.v, e.p) :: acc) [] g
  in
  let rec fixpoint edges rounds =
    let edges', changed = round n is_terminal edges in
    if changed then fixpoint edges' (rounds + 1) else (edges', rounds)
  in
  let edges, rounds = fixpoint edges 0 in
  let keep = Array.copy is_terminal in
  List.iter
    (fun (u, v, _) ->
      keep.(u) <- true;
      keep.(v) <- true)
    edges;
  let old_of_new =
    Array.of_list (List.filter (fun v -> keep.(v)) (List.init n Fun.id))
  in
  let new_of_old = Array.make n (-1) in
  Array.iteri (fun nw old -> new_of_old.(old) <- nw) old_of_new;
  let graph =
    Ugraph.create ~n:(Array.length old_of_new)
      (List.rev_map
         (fun (u, v, p) -> { Ugraph.u = new_of_old.(u); v = new_of_old.(v); p })
         edges)
  in
  let terminals = List.map (fun t -> new_of_old.(t)) terminals in
  { T.graph; terminals; old_of_new; rounds }

(* ---- block tree ---- *)

type blocktree = {
  comp_of_vertex : int array;
  n_comps : int;
  adj : (int * int) list array;
  terminal_count : int array;
}

let two_edge_components g =
  let b = Graphalgo.Bridges.bridges g in
  let n = Ugraph.n_vertices g in
  let dsu = Dsu.create n in
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) -> if not b.(eid) then ignore (Dsu.union dsu e.u e.v))
    g;
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    let r = Dsu.find dsu v in
    if comp.(r) < 0 then begin
      comp.(r) <- !count;
      incr count
    end;
    comp.(v) <- comp.(r)
  done;
  (b, comp, !count)

let build g ~terminals =
  let is_bridge, comp_of_vertex, n_comps = two_edge_components g in
  let adj = Array.make n_comps [] in
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) ->
      if is_bridge.(eid) then begin
        let cu = comp_of_vertex.(e.u) and cv = comp_of_vertex.(e.v) in
        adj.(cu) <- (cv, eid) :: adj.(cu);
        adj.(cv) <- (cu, eid) :: adj.(cv)
      end)
    g;
  let terminal_count = Array.make n_comps 0 in
  List.iter
    (fun t ->
      let c = comp_of_vertex.(t) in
      terminal_count.(c) <- terminal_count.(c) + 1)
    terminals;
  { comp_of_vertex; n_comps; adj; terminal_count }

let forest_components bt =
  let comp = Array.make bt.n_comps (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for start = 0 to bt.n_comps - 1 do
    if comp.(start) < 0 then begin
      let id = !count in
      incr count;
      comp.(start) <- id;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let c = Queue.pop queue in
        List.iter
          (fun (c', _) ->
            if comp.(c') < 0 then begin
              comp.(c') <- id;
              Queue.add c' queue
            end)
          bt.adj.(c)
      done
    end
  done;
  comp

let terminals_separated bt =
  let comp = forest_components bt in
  let terminal_comp = ref (-1) in
  let separated = ref false in
  Array.iteri
    (fun c cnt ->
      if cnt > 0 then
        if !terminal_comp < 0 then terminal_comp := comp.(c)
        else if comp.(c) <> !terminal_comp then separated := true)
    bt.terminal_count;
  !separated

(* Only called when the terminals share one tree. *)
let steiner_keep bt =
  let keep = Array.make bt.n_comps false in
  let tree_comp = forest_components bt in
  let terminal_tree = ref (-1) in
  Array.iteri
    (fun c cnt -> if cnt > 0 && !terminal_tree < 0 then terminal_tree := tree_comp.(c))
    bt.terminal_count;
  Array.iteri (fun c tc -> keep.(c) <- tc = !terminal_tree) tree_comp;
  let live_degree = Array.make bt.n_comps 0 in
  Array.iteri
    (fun c neighbours ->
      if keep.(c) then
        live_degree.(c) <- List.length (List.filter (fun (c', _) -> keep.(c')) neighbours))
    bt.adj;
  let queue = Queue.create () in
  Array.iteri
    (fun c _ ->
      if keep.(c) && live_degree.(c) <= 1 && bt.terminal_count.(c) = 0 then
        Queue.add c queue)
    bt.adj;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    if keep.(c) && live_degree.(c) <= 1 && bt.terminal_count.(c) = 0 then begin
      keep.(c) <- false;
      List.iter
        (fun (c', _) ->
          if keep.(c') then begin
            live_degree.(c') <- live_degree.(c') - 1;
            if live_degree.(c') <= 1 && bt.terminal_count.(c') = 0 then
              Queue.add c' queue
          end)
        bt.adj.(c)
    end
  done;
  keep

(* ---- pipeline ---- *)

let decompose pruned terminals =
  let is_bridge = Graphalgo.Bridges.bridges pruned in
  let n = Ugraph.n_vertices pruned in
  let pb = ref Xprob.one in
  let n_bridges = ref 0 in
  let must_connect = Array.make n false in
  List.iter (fun t -> must_connect.(t) <- true) terminals;
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) ->
      if is_bridge.(eid) then begin
        incr n_bridges;
        pb := Xprob.mul !pb (Xprob.of_float e.p);
        must_connect.(e.u) <- true;
        must_connect.(e.v) <- true
      end)
    pruned;
  let dsu = Dsu.create n in
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) ->
      if not is_bridge.(eid) then ignore (Dsu.union dsu e.u e.v))
    pruned;
  let members = Hashtbl.create 16 in
  for v = n - 1 downto 0 do
    let r = Dsu.find dsu v in
    Hashtbl.replace members r (v :: Option.value ~default:[] (Hashtbl.find_opt members r))
  done;
  let comps =
    Hashtbl.fold (fun _root vs acc -> vs :: acc) members []
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
  in
  let subs =
    List.filter_map
      (fun vs ->
        let ts = List.filter (fun v -> must_connect.(v)) vs in
        if List.length ts < 2 then None
        else begin
          let sub, old_of_new = Ugraph.induced pruned (Array.of_list vs) in
          Some (sub, Ugraph.relabel_terminals ~old_of_new ts)
        end)
      comps
  in
  (!pb, !n_bridges, subs)

let run g ~terminals : P.outcome =
  Ugraph.validate_terminals g terminals;
  if List.length terminals < 2 then P.Trivial Xprob.one
  else if List.exists (fun t -> Ugraph.degree g t = 0) terminals then
    P.Trivial Xprob.zero
  else begin
    let bt = build g ~terminals in
    if terminals_separated bt then P.Trivial Xprob.zero
    else begin
      let keep_comps = steiner_keep bt in
      let kept =
        Array.of_list
          (List.filter
             (fun v -> keep_comps.(bt.comp_of_vertex.(v)))
             (List.init (Ugraph.n_vertices g) Fun.id))
      in
      let pruned, old_of_new = Ugraph.induced g kept in
      let terminals' = Ugraph.relabel_terminals ~old_of_new terminals in
      let pb, n_bridges, raw_subs = decompose pruned terminals' in
      let rounds = ref 0 in
      let subproblems =
        List.filter_map
          (fun (sub, ts) ->
            let tr = transform sub ~terminals:ts in
            rounds := !rounds + tr.T.rounds;
            if List.length tr.T.terminals < 2 then None
            else Some { P.graph = tr.T.graph; terminals = tr.T.terminals })
          raw_subs
      in
      let zero =
        List.exists
          (fun (sp : P.subproblem) ->
            List.exists (fun t -> Ugraph.degree sp.graph t = 0) sp.terminals
            ||
            let present = Array.make (Ugraph.n_edges sp.graph) true in
            not
              (Graphalgo.Connectivity.terminals_connected sp.graph ~present
                 sp.terminals))
          subproblems
      in
      if zero then P.Trivial Xprob.zero
      else begin
        let sum f = List.fold_left (fun acc sp -> f acc sp) 0 subproblems in
        let stats =
          {
            P.original_vertices = Ugraph.n_vertices g;
            original_edges = Ugraph.n_edges g;
            pruned_vertices = Ugraph.n_vertices pruned;
            pruned_edges = Ugraph.n_edges pruned;
            n_bridges;
            n_subproblems = List.length subproblems;
            final_edges = sum (fun acc sp -> acc + Ugraph.n_edges sp.P.graph);
            max_subproblem_edges =
              sum (fun acc sp -> max acc (Ugraph.n_edges sp.P.graph));
            transform_rounds = !rounds;
          }
        in
        P.Reduced { pb; subproblems; stats }
      end
    end
  end
