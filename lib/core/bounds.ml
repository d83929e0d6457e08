type t = {
  lower : float;
  upper : float;
  exact : bool;
  layers_built : int;
  work_used : bool;
}

let compute ?(width = 10_000) ?max_work ?(order = `Auto) ?(extension = true) g
    ~terminals =
  let config =
    {
      S2bdd.default_config with
      S2bdd.width;
      S2bdd.order;
      S2bdd.max_work =
        Option.value ~default:S2bdd.default_config.S2bdd.max_work max_work;
    }
  in
  match Reliability.split ~config ~extension g ~terminals with
  | Reliability.Resolved v ->
    { lower = v; upper = v; exact = true; layers_built = 0; work_used = false }
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
          layers_built = t.layers_built + r.S2bdd.layers_built;
          work_used = t.work_used || r.S2bdd.stop = S2bdd.Work_capped;
        })
      { lower = pb; upper = pb; exact = true; layers_built = 0;
        work_used = false }
      subproblems

let decides t ~threshold =
  if t.lower >= threshold then `Above
  else if t.upper < threshold then `Below
  else `Unknown
