let reachable_from g start =
  let n = Ugraph.n_vertices g in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(start) <- true;
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Ugraph.iter_incident g v (fun ~eid:_ ~other ->
        if not seen.(other) then begin
          seen.(other) <- true;
          Queue.add other queue
        end)
  done;
  seen

let is_connected g =
  let n = Ugraph.n_vertices g in
  if n <= 1 then true
  else Array.for_all Fun.id (reachable_from g 0)

let components g =
  let n = Ugraph.n_vertices g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for start = 0 to n - 1 do
    if comp.(start) < 0 then begin
      let id = !count in
      incr count;
      comp.(start) <- id;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Ugraph.iter_incident g v (fun ~eid:_ ~other ->
            if comp.(other) < 0 then begin
              comp.(other) <- id;
              Queue.add other queue
            end)
      done
    end
  done;
  (comp, !count)

let check_present g present =
  if Array.length present <> Ugraph.n_edges g then
    invalid_arg "Connectivity: present array has wrong length"

let terminals_connected g ~present ts =
  check_present g present;
  match ts with
  | [] -> invalid_arg "Connectivity.terminals_connected: empty terminal set"
  | [ _ ] -> true
  | start :: rest ->
    let n = Ugraph.n_vertices g in
    let seen = Array.make n false in
    let queue = Queue.create () in
    seen.(start) <- true;
    Queue.add start queue;
    (* Early exit once every terminal is reached. *)
    let missing = ref (List.length rest) in
    let is_terminal = Array.make n false in
    List.iter (fun t -> is_terminal.(t) <- true) rest;
    (try
       while not (Queue.is_empty queue) do
         let v = Queue.pop queue in
         Ugraph.iter_incident g v (fun ~eid ~other ->
             if present.(eid) && not seen.(other) then begin
               seen.(other) <- true;
               if is_terminal.(other) then begin
                 is_terminal.(other) <- false;
                 decr missing;
                 if !missing = 0 then raise Exit
               end;
               Queue.add other queue
             end)
       done
     with Exit -> ());
    !missing = 0

let terminals_connected_dsu dsu (g : Ugraph.t) ~present ts =
  check_present g present;
  if Dsu.size dsu <> g.n then
    invalid_arg "Connectivity.terminals_connected_dsu: DSU size mismatch";
  Dsu.reset dsu;
  for eid = 0 to g.m - 1 do
    if present.(eid) then ignore (Dsu.union dsu g.eu.(eid) g.ev.(eid))
  done;
  Dsu.all_connected dsu ts
