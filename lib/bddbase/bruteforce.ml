let max_edges = 25

let reliability g ~terminals =
  Ugraph.validate_terminals g terminals;
  let m = Ugraph.n_edges g in
  if m > max_edges then
    invalid_arg (Printf.sprintf "Bruteforce.reliability: %d edges > %d" m max_edges);
  match terminals with
  | [] | [ _ ] -> 1.
  | _ ->
    let n = Ugraph.n_vertices g in
    let dsu = Dsu.create n in
    let present = Array.make m false in
    let total = ref 0. in
    for mask = 0 to (1 lsl m) - 1 do
      let prob = ref 1. in
      for i = 0 to m - 1 do
        let p = g.Ugraph.ep.(i) in
        if mask land (1 lsl i) <> 0 then begin
          present.(i) <- true;
          prob := !prob *. p
        end
        else begin
          present.(i) <- false;
          prob := !prob *. (1. -. p)
        end
      done;
      if !prob > 0.
         && Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present terminals
      then total := !total +. !prob
    done;
    !total
