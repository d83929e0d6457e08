type t = {
  lower : float;
  upper : float;
  exact : bool;
}

let compute ?(width = 10_000) ?(extension = true) g ~terminals =
  let config = { S2bdd.default_config with S2bdd.width } in
  match Reliability.split ~config ~extension g ~terminals with
  | Reliability.Resolved v -> { lower = v; upper = v; exact = true }
  | Reliability.Split { pb; subproblems; _ } ->
    Array.fold_left
      (fun t (sp : Reliability.subproblem) ->
        let r =
          S2bdd.bounds ~config:sp.Reliability.config sp.Reliability.graph
            ~terminals:sp.Reliability.terminals
        in
        {
          lower = t.lower *. r.S2bdd.lower;
          upper = t.upper *. r.S2bdd.upper;
          exact = t.exact && r.S2bdd.exact;
        })
      { lower = pb; upper = pb; exact = true }
      subproblems

let decides t ~threshold =
  if t.lower >= threshold then `Above
  else if t.upper < threshold then `Below
  else `Unknown
