type t = {
  n_edges : int;
  counts : float array;
}

type error = [ `Node_budget_exceeded of int ]

let binomial m j =
  (* C(m, j) in floats; exact for every m the exact BDD can handle. *)
  let j = min j (m - j) in
  let acc = ref 1. in
  for i = 1 to j do
    acc := !acc *. float_of_int (m - j + i) /. float_of_int i
  done;
  !acc

let all_subsets m = { n_edges = m; counts = Array.init (m + 1) (binomial m) }
let none m = { n_edges = m; counts = Array.make (m + 1) 0. }

(* Node values are count vectors indexed by the number of existent
   edges chosen so far; a 1-arc shifts the vector by one, a 0-arc keeps
   it. The 1-sink accumulates, per total edge count, the completions of
   each sunk prefix: a prefix with [j] existent edges out of [l]
   processed contributes [C(m - l, i)] subgraphs with [j + i] existent
   edges for every [i]. *)
let compute ?order ?(node_budget = Exact.default_node_budget) g ~terminals =
  Ugraph.validate_terminals g terminals;
  let m = Ugraph.n_edges g in
  let degenerate =
    match terminals with
    | [] | [ _ ] -> Some (all_subsets m)
    | ts ->
      if List.exists (fun t -> Ugraph.degree g t = 0) ts then Some (none m)
      else if
        Graphalgo.Connectivity.terminals_connected g
          ~present:(Array.make m true) ts
      then None
      else Some (none m)
  in
  match degenerate with
  | Some poly -> Ok poly
  | None ->
    let order =
      match order with Some o -> o | None -> Graphalgo.Ordering.best_order g
    in
    let ctx = Fstate.make g ~order ~terminals in
    let counts = Array.make (m + 1) 0. in
    (* sink1 at layer l (edges processed = l + 1) with j existent edges:
       the remaining m - l - 1 edges are free. *)
    let absorb ~processed vec =
      let free = m - processed in
      Array.iteri
        (fun j c ->
          if c > 0. then
            for i = 0 to free do
              counts.(j + i) <- counts.(j + i) +. (c *. binomial free i)
            done)
        vec
    in
    let current = ref (Fstate.Key_table.create 16) in
    Fstate.Key_table.replace !current Fstate.initial (Array.make (m + 1) 0.);
    (match Fstate.Key_table.find_opt !current Fstate.initial with
    | Some vec -> vec.(0) <- 1.
    | None -> assert false);
    let total_nodes = ref 1 in
    let budget_hit = ref false in
    let pos = ref 0 in
    while (not !budget_hit) && !pos < m && Fstate.Key_table.length !current > 0 do
      let next = Fstate.Key_table.create (2 * Fstate.Key_table.length !current) in
      let expand st vec =
        let branch exists =
          let shifted =
            if exists then begin
              let out = Array.make (m + 1) 0. in
              Array.iteri (fun j c -> if c > 0. then out.(j + 1) <- c) vec;
              out
            end
            else Array.copy vec
          in
          match Fstate.step ctx ~eager:true ~pos:!pos st ~exists with
          | Fstate.Sink1 -> absorb ~processed:(!pos + 1) shifted
          | Fstate.Sink0 -> ()
          | Fstate.Live st' -> (
            match Fstate.Key_table.find_opt next st' with
            | Some acc ->
              Array.iteri (fun j c -> acc.(j) <- acc.(j) +. c) shifted
            | None -> Fstate.Key_table.replace next st' shifted)
        in
        branch true;
        branch false
      in
      Fstate.Key_table.iter expand !current;
      current := next;
      total_nodes := !total_nodes + Fstate.Key_table.length next;
      if !total_nodes > node_budget then budget_hit := true;
      incr pos
    done;
    if !budget_hit then Error (`Node_budget_exceeded !total_nodes)
    else Ok { n_edges = m; counts }

let eval poly p =
  if p < 0. || p > 1. then invalid_arg "Polynomial.eval: p outside [0,1]";
  let m = poly.n_edges in
  (* Binomial-basis evaluation: sum_j N_j p^j (1-p)^(m-j), accumulating
     the powers incrementally to stay stable. *)
  let q = 1. -. p in
  let total = ref 0. in
  Array.iteri
    (fun j nj ->
      if nj > 0. then
        total := !total +. (nj *. (p ** float_of_int j) *. (q ** float_of_int (m - j))))
    poly.counts;
  !total

let connected_subgraphs poly = Array.fold_left ( +. ) 0. poly.counts

let pp fmt poly =
  Format.fprintf fmt "R(p) = sum over j of N_j p^j (1-p)^(%d-j), N = ["
    poly.n_edges;
  Array.iteri
    (fun j c -> if j > 0 then Format.fprintf fmt "; %g" c else Format.fprintf fmt "%g" c)
    poly.counts;
  Format.fprintf fmt "]"
