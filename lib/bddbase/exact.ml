type stats = {
  layers : int;
  total_nodes : int;
  max_layer_nodes : int;
  pc : Xprob.t;
  pd : Xprob.t;
}

type error = [ `Node_budget_exceeded of int ]

let default_node_budget = 1 lsl 22

(* Resolve the cases the frontier machine does not model: fewer than two
   terminals, or terminals that no possible graph can connect. *)
let degenerate g ~terminals =
  Ugraph.validate_terminals g terminals;
  match terminals with
  | [] | [ _ ] -> Some Xprob.one
  | ts ->
    if List.exists (fun t -> Ugraph.degree g t = 0) ts then Some Xprob.zero
    else
      let present = Array.make (Ugraph.n_edges g) true in
      if Graphalgo.Connectivity.terminals_connected g ~present ts then None
      else Some Xprob.zero

let trivial_stats r =
  { layers = 0; total_nodes = 0; max_layer_nodes = 0;
    pc = r; pd = Xprob.sub Xprob.one r }

let reliability ?order ?(node_budget = default_node_budget) ?(eager = false) g
    ~terminals =
  match degenerate g ~terminals with
  | Some r -> Ok (r, trivial_stats r)
  | None ->
    let order =
      match order with Some o -> o | None -> Graphalgo.Ordering.best_order g
    in
    let ctx = Fstate.make g ~order ~terminals in
    let m = Fstate.n_positions ctx in
    let pc = ref Xprob.zero and pd = ref Xprob.zero in
    let current = ref (Fstate.Key_table.create 16) in
    Fstate.Key_table.replace !current Fstate.initial (ref Xprob.one);
    (* The baseline keeps every constructed layer alive; retaining the
       tables models its memory footprint, and their sizes its BDD
       size. *)
    let retained = ref [] in
    let total_nodes = ref 1 and max_layer_nodes = ref 1 in
    let budget_hit = ref false in
    let pos = ref 0 in
    while (not !budget_hit) && !pos < m && Fstate.Key_table.length !current > 0 do
      let e = Fstate.edge_at ctx !pos in
      let next = Fstate.Key_table.create (Fstate.Key_table.length !current * 2) in
      let expand st pn =
        let branch exists weight =
          if weight > 0. then begin
            let p' = Xprob.scale weight !pn in
            match Fstate.step ctx ~eager ~pos:!pos st ~exists with
            | Fstate.Sink1 -> pc := Xprob.add !pc p'
            | Fstate.Sink0 -> pd := Xprob.add !pd p'
            | Fstate.Live st' -> (
              match Fstate.Key_table.find_opt next st' with
              | Some acc -> acc := Xprob.add !acc p'
              | None -> Fstate.Key_table.replace next st' (ref p'))
          end
        in
        branch true e.Ugraph.p;
        branch false (1. -. e.Ugraph.p)
      in
      Fstate.Key_table.iter expand !current;
      retained := !current :: !retained;
      current := next;
      let width = Fstate.Key_table.length next in
      total_nodes := !total_nodes + width;
      if width > !max_layer_nodes then max_layer_nodes := width;
      if !total_nodes > node_budget then budget_hit := true;
      incr pos
    done;
    if !budget_hit then Error (`Node_budget_exceeded !total_nodes)
    else begin
      ignore !retained;
      Ok
        ( !pc,
          { layers = m; total_nodes = !total_nodes;
            max_layer_nodes = !max_layer_nodes; pc = !pc; pd = !pd } )
    end

let reliability_float ?order ?node_budget ?eager g ~terminals =
  Result.map
    (fun (r, _) -> Xprob.to_float_approx r)
    (reliability ?order ?node_budget ?eager g ~terminals)
