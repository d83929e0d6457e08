(* Reference copy of the frontier machine's transition as the library
   computed it while every call built its own working arrays, closures
   and pending list. Kept as the bit-identity oracle for
   [Bddbase.Fstate.step], which now works in per-domain buffers: same
   materialisation, same merge, same departures, same canonical
   renumbering.

   [Fstate.state] is abstract, so the reference steps a decoded copy:
   [Fstate.key_exact] lays out a state's [verts], then [comp_of], a
   [-1] separator, then [tc]. The context
   is rebuilt from [Ordering.Frontier.plan], as [Fstate.make] once
   did. *)

type state = { verts : int array; comp_of : int array; tc : int array }

type outcome =
  | Sink1
  | Sink0
  | Live of state

let of_key key =
  let len = Array.length key in
  let rec sep i = if key.(i) < 0 then i else sep (i + 1) in
  let nv = sep 0 / 2 in
  {
    verts = Array.sub key 0 nv;
    comp_of = Array.sub key nv nv;
    tc = Array.sub key ((2 * nv) + 1) (len - (2 * nv) - 1);
  }

let of_fstate st = of_key (Bddbase.Fstate.key_exact st)
let key st = Array.concat [ st.verts; st.comp_of; [| -1 |]; st.tc ]

type ctx = {
  g : Ugraph.t;
  k : int;
  order : int array;
  first_pos : int array;
  last_pos : int array;
  is_terminal : bool array;
}

let make g ~order ~terminals =
  let plan = Graphalgo.Ordering.Frontier.plan g order in
  let is_terminal = Array.make (Ugraph.n_vertices g) false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  {
    g;
    k = List.length terminals;
    order = Array.copy order;
    first_pos = plan.Graphalgo.Ordering.Frontier.first_pos;
    last_pos = plan.Graphalgo.Ordering.Frontier.last_pos;
    is_terminal;
  }

let find_vert st x =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if st.verts.(mid) = x then mid
      else if st.verts.(mid) < x then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length st.verts)

let step ctx ~eager ~pos st ~exists =
  let e = Ugraph.edge ctx.g ctx.order.(pos) in
  let u = e.Ugraph.u and v = e.Ugraph.v in
  let nv = Array.length st.verts and nc = Array.length st.tc in
  (* Working arrays sized for up to two insertions. *)
  let w_verts = Array.make (nv + 2) 0 in
  let w_comp = Array.make (nv + 2) 0 in
  let w_tc = Array.make (nc + 2) 0 in
  Array.blit st.tc 0 w_tc 0 nc;
  let w_len = ref 0 and w_nc = ref nc in
  (* Materialisation set: a vertex joins the explicit representation if
     it is an entering terminal, or an endpoint of an existent non-loop
     edge (its component will have size >= 2). *)
  let entering x = ctx.first_pos.(x) = pos in
  let needs x = (entering x && ctx.is_terminal.(x)) || (exists && u <> v) in
  let insert_sorted =
    let pending = ref [] in
    if needs u && find_vert st u < 0 then pending := [ u ];
    if v <> u && needs v && find_vert st v < 0 then
      pending := List.sort_uniq Int.compare (v :: !pending);
    !pending
  in
  (* Merge old verts with pending insertions, both sorted. *)
  let rec emit i pending =
    match pending with
    | p :: rest when i >= nv || p < st.verts.(i) ->
      w_verts.(!w_len) <- p;
      w_comp.(!w_len) <- !w_nc;
      w_tc.(!w_nc) <- (if ctx.is_terminal.(p) then 1 else 0);
      incr w_nc;
      incr w_len;
      emit i rest
    | _ when i < nv ->
      w_verts.(!w_len) <- st.verts.(i);
      w_comp.(!w_len) <- st.comp_of.(i);
      incr w_len;
      emit (i + 1) pending
    | [] -> ()
    | _ -> emit i pending
  in
  emit 0 insert_sorted;
  let len = !w_len in
  let find x =
    let rec go lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        if w_verts.(mid) = x then mid
        else if w_verts.(mid) < x then go (mid + 1) hi
        else go lo mid
    in
    go 0 len
  in
  (* Apply an existent edge: merge the endpoint components. *)
  let early_sink1 = ref false in
  if exists && u <> v then begin
    let iu = find u and iv = find v in
    let cu = w_comp.(iu) and cv = w_comp.(iv) in
    if cu <> cv then begin
      let keep, dead = if cu < cv then (cu, cv) else (cv, cu) in
      for i = 0 to len - 1 do
        if w_comp.(i) = dead then w_comp.(i) <- keep
      done;
      w_tc.(keep) <- w_tc.(keep) + w_tc.(dead);
      w_tc.(dead) <- 0;
      if eager && w_tc.(keep) = ctx.k then early_sink1 := true
    end
  end;
  if !early_sink1 then Sink1
  else begin
    (* Departures: only the endpoints can leave at this position. *)
    let removed = Array.make len false in
    let sink0 = ref false and sink1 = ref false in
    let leave x =
      if ctx.last_pos.(x) = pos then begin
        let ix = find x in
        if ix >= 0 && not removed.(ix) then begin
          removed.(ix) <- true;
          let c = w_comp.(ix) in
          let members = ref 0 and last_member = ref (-1) in
          for i = 0 to len - 1 do
            if (not removed.(i)) && w_comp.(i) = c then begin
              incr members;
              last_member := i
            end
          done;
          if !members = 0 then begin
            if w_tc.(c) = ctx.k then sink1 := true
            else if w_tc.(c) > 0 then sink0 := true
          end
          else if !members = 1 && w_tc.(c) = 0 then removed.(!last_member) <- true
        end
      end
    in
    leave u;
    if v <> u then leave v;
    if !sink1 then Sink1
    else if !sink0 then Sink0
    else begin
      (* Compact and canonically renumber. *)
      let out_len = ref 0 in
      for i = 0 to len - 1 do
        if not removed.(i) then incr out_len
      done;
      let verts = Array.make !out_len 0 in
      let comp_of = Array.make !out_len 0 in
      let rename = Array.make (nc + 2) (-1) in
      let tc_out = Array.make !out_len 0 in
      let cursor = ref 0 and n_comps = ref 0 in
      for i = 0 to len - 1 do
        if not removed.(i) then begin
          let c = w_comp.(i) in
          if rename.(c) < 0 then begin
            rename.(c) <- !n_comps;
            tc_out.(!n_comps) <- w_tc.(c);
            incr n_comps
          end;
          verts.(!cursor) <- w_verts.(i);
          comp_of.(!cursor) <- rename.(c);
          incr cursor
        end
      done;
      Live { verts; comp_of; tc = Array.sub tc_out 0 !n_comps }
    end
  end
