(* Frontier state machine. See fstate.mli for the model.

   States are SPARSE: only "non-trivial" frontier vertices are stored —
   those whose component either spans at least two frontier vertices or
   carries a terminal. A frontier vertex absent from the state is an
   implicit singleton component with no terminal: every incident edge
   processed so far was non-existent. On percolation-sparse graphs this
   keeps states tiny even when the frontier itself is huge, which is
   what makes layer processing affordable on non-planar inputs.

   Invariants of a canonical state:
   - [verts] strictly increasing vertex ids;
   - [comp_of.(i)] is the component of [verts.(i)], ids assigned by
     first appearance (so equal partitions are equal arrays);
   - [tc.(c)] terminal count of component [c]; every component is
     non-trivial (size >= 2 or [tc > 0]). *)

type state = { verts : int array; comp_of : int array; tc : int array }

type ctx = {
  g : Ugraph.t;
  k : int;
  order : int array;
  first_pos : int array;
  last_pos : int array;
  terminal_arr : int array;
  is_terminal : bool array;
  (* Edge endpoints and probabilities laid out in processing order
     (position [i] = edge [order.(i)]): descents stream through these
     flat arrays sequentially (the permuted accesses through [order]
     into the boxed edge records would dominate the per-sample cost
     otherwise). The snapshot also carries the CSR adjacency, unused by
     the descents themselves but shared with every other kernel
     consumer. *)
  csr : Kernel.Csr.t;
}

let initial = { verts = [||]; comp_of = [||]; tc = [||] }

type outcome =
  | Sink1
  | Sink0
  | Live of state

let n_positions ctx = Array.length ctx.order
let edge_at ctx pos = Ugraph.edge ctx.g ctx.order.(pos)

let make g ~order ~terminals =
  Ugraph.validate_terminals g terminals;
  let k = List.length terminals in
  if k < 2 then invalid_arg "Fstate.make: need at least two terminals";
  List.iter
    (fun t ->
      if Ugraph.degree g t = 0 then
        invalid_arg "Fstate.make: isolated terminal (reliability is trivially zero)")
    terminals;
  let plan = Graphalgo.Ordering.Frontier.plan g order in
  let n = Ugraph.n_vertices g in
  let is_terminal = Array.make n false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  let csr = Kernel.Csr.of_order g ~order in
  {
    g;
    k;
    order = Array.copy order;
    first_pos = plan.Graphalgo.Ordering.Frontier.first_pos;
    last_pos = plan.Graphalgo.Ordering.Frontier.last_pos;
    terminal_arr = Array.of_list terminals;
    is_terminal;
    csr;
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
  let e = edge_at ctx pos in
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
  let needs x =
    (entering x && ctx.is_terminal.(x)) || (exists && u <> v)
  in
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
      (* New singleton: terminal iff it is a terminal vertex (it may
         have entered earlier as an implicit non-terminal only if not a
         terminal, so is_terminal decides). *)
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
          (* Does c still have an explicit member? *)
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
          else if !members = 1 && w_tc.(c) = 0 then
            (* Demote the leftover lone non-terminal to implicit. *)
            removed.(!last_member) <- true
        end
        (* An implicit singleton leaving carries no terminal: silent. *)
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

let key_exact st =
  let nv = Array.length st.verts and nt = Array.length st.tc in
  let key = Array.make ((2 * nv) + 1 + nt) (-1) in
  Array.blit st.verts 0 key 0 nv;
  Array.blit st.comp_of 0 key nv nv;
  Array.blit st.tc 0 key ((2 * nv) + 1) nt;
  key

let key_flags st =
  let nv = Array.length st.verts and nt = Array.length st.tc in
  let key = Array.make ((2 * nv) + 1 + nt) (-1) in
  Array.blit st.verts 0 key 0 nv;
  Array.blit st.comp_of 0 key nv nv;
  Array.iteri (fun i t -> key.((2 * nv) + 1 + i) <- (if t > 0 then 1 else 0)) st.tc;
  key

let component_count st = Array.length st.tc
let component_terminals st = Array.copy st.tc

let heuristic_log2 ctx ~rem st ~log2_pn =
  let k = float_of_int ctx.k in
  (* [rem] is the caller-maintained remaining-degree table;
     per-component d sums come from it in O(state size). *)
  let d = Array.make (Array.length st.tc) 0 in
  Array.iteri
    (fun i v -> d.(st.comp_of.(i)) <- d.(st.comp_of.(i)) + rem.(v))
    st.verts;
  let best = ref neg_infinity in
  Array.iteri
    (fun c t ->
      if t > 0 then begin
        let dc = max 1 d.(c) in
        let f = Float.max (float_of_int t /. k) (1. /. float_of_int dc) in
        if f > !best then best := f
      end)
    st.tc;
  let factor =
    if !best > neg_infinity then !best
    else 1. /. (2. *. k *. float_of_int (1 + Array.length st.verts))
  in
  log2_pn +. Float.log2 factor

let descend ctx ~eager ~pos st ~bernoulli =
  let m = n_positions ctx in
  let rec go pos st =
    if pos >= m then
      invalid_arg "Fstate.descend: reached the end without sinking"
    else
      let e = edge_at ctx pos in
      let exists = bernoulli e.Ugraph.p in
      match step ctx ~eager ~pos st ~exists with
      | Sink1 -> true
      | Sink0 -> false
      | Live st' -> go (pos + 1) st'
  in
  go pos st

(* Fast descent: complete the possible graph directly and run one
   union-find connectivity check. The node's explicit components are
   anchored to virtual DSU elements [n + comp_id]; implicit singletons
   need no anchor. The terminals to connect are the flagged components
   plus terminals that have not entered the frontier yet. *)
let descend_union ctx ~dsu ~detail ~pos st ~bernoulli =
  let g = ctx.g in
  let n = Ugraph.n_vertices g in
  if Dsu.size dsu < n + Array.length st.tc then
    invalid_arg "Fstate.descend_union: DSU too small";
  Dsu.reset dsu;
  let m = n_positions ctx in
  (* Completion identity for the HT dedup: a full-avalanche 62-bit hash
     of the drawn edge outcomes (Hash64). The per-bool FNV-1a that used
     to live here had the same upward-only bit diffusion flaw as the old
     Mcsampling.mask_hash, so structured completions could collide and
     be merged by the descent dedup table. *)
  let hs = Hash64.Stream.create () in
  let logq = ref 0. in
  let eu = ctx.csr.Kernel.Csr.eu
  and ev = ctx.csr.Kernel.Csr.ev
  and ep = ctx.csr.Kernel.Csr.ep in
  if detail then
    (* HT needs the completion's identity and conditional probability. *)
    for p = pos to m - 1 do
      let pe = ep.(p) in
      let exists = bernoulli pe in
      Hash64.Stream.add_bit hs exists;
      if exists then begin
        if pe < 1. then logq := !logq +. Float.log pe;
        ignore (Dsu.union dsu eu.(p) ev.(p))
      end
      else logq := !logq +. Float.log1p (-.pe)
    done
  else
    for p = pos to m - 1 do
      if bernoulli ep.(p) then ignore (Dsu.union dsu eu.(p) ev.(p))
    done;
  Array.iteri (fun i v -> ignore (Dsu.union dsu v (n + st.comp_of.(i)))) st.verts;
  let anchor = ref (-1) in
  let connected = ref true in
  let require x =
    if !anchor < 0 then anchor := Dsu.find dsu x
    else if Dsu.find dsu x <> !anchor then connected := false
  in
  Array.iteri (fun c t -> if t > 0 then require (n + c)) st.tc;
  Array.iter (fun t -> if ctx.first_pos.(t) >= pos then require t) ctx.terminal_arr;
  (!connected, Hash64.Stream.finish hs, !logq)

(* What [descend_union] returns as the hash when [detail] is false: the
   digest of an empty Hash64 stream (a fixed non-zero constant, not 0).
   [descend_kernel] must return the same value to stay bit-compatible. *)
let empty_digest = Hash64.mask_words [||] ~bits:0

(* Kernel fast path for [descend_union]: same draw order, same float
   operations, same completion hash — but drawing through the flat
   kernel (present-position buffer, packed mask words) and checking
   connectivity with the early-exit union-find instead of unioning
   every present edge into a full-reset [Dsu.t].

   Element layout mirrors [descend_union]: vertices [0 .. n-1], virtual
   anchors [n + comp_id] for the state's explicit components. Anchors
   are unioned before the terminal marks — safe, because an anchor
   union only ever touches roots with [tcnt = 0], so [live] stays
   untouched; the marks must precede [union_drawn], which early-exits
   on the live count. *)
let descend_kernel ctx ~scratch ~detail ~pos st ~bernoulli =
  let n = Ugraph.n_vertices ctx.g in
  let nc = Array.length st.tc in
  let logq = Kernel.draw_sub scratch ctx.csr ~pos ~detail ~bernoulli in
  let hash = if detail then Kernel.mask_hash scratch else empty_digest in
  Kernel.round_begin scratch ~elems:(n + nc);
  Array.iteri
    (fun i v -> Kernel.union scratch v (n + st.comp_of.(i)))
    st.verts;
  Array.iteri (fun c t -> if t > 0 then Kernel.mark scratch (n + c)) st.tc;
  Array.iter
    (fun t -> if ctx.first_pos.(t) >= pos then Kernel.mark scratch t)
    ctx.terminal_arr;
  (Kernel.union_drawn scratch ctx.csr, hash, logq)

module Key_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b

  let hash a =
    (* FNV-1a over every element; Hashtbl.hash would only inspect a
       bounded prefix, which collides badly on wide frontiers. Unlike
       the content hashes above this one only buckets — keys are
       compared by structural equality on collision — so FNV's weak
       diffusion costs at most table balance, never correctness. *)
    let h = ref 0x811C9DC5 in
    Array.iter (fun x -> h := (!h lxor (x + 0x9E3779B9)) * 0x01000193 land max_int) a;
    !h
end)
