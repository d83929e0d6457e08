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
  k : int;
  order : int array;
  first_pos : int array;
  last_pos : int array;
  terminal_arr : int array;
  is_terminal : bool array;
  (* Edge endpoints and probabilities laid out in processing order
     (position [i] = edge [order.(i)]): descents stream through these
     flat arrays sequentially (permuted accesses through [order] would
     dominate the per-sample cost otherwise), and [step] and [edge_at]
     read their edge here. A positions-only snapshot
     (Kernel.Csr.positions): nothing reads an adjacency, so none is
     built. *)
  csr : Kernel.Csr.t;
}

let initial = { verts = [||]; comp_of = [||]; tc = [||] }

type outcome =
  | Sink1
  | Sink0
  | Live of state

let n_positions ctx = Array.length ctx.order
let edge_at ctx pos =
  let c = ctx.csr in
  { Ugraph.u = c.Kernel.Csr.eu.(pos); v = c.Kernel.Csr.ev.(pos); p = c.Kernel.Csr.ep.(pos) }

let make g ~order ~terminals =
  Ugraph.validate_terminals g terminals;
  let k = List.length terminals in
  if k < 2 then invalid_arg "Fstate.make: need at least two terminals";
  List.iter
    (fun t ->
      if Ugraph.degree g t = 0 then
        invalid_arg "Fstate.make: isolated terminal (reliability is trivially zero)")
    terminals;
  let first_pos, last_pos = Graphalgo.Ordering.Frontier.first_last g order in
  let is_terminal = Array.make (Ugraph.n_vertices g) false in
  List.iter (fun t -> is_terminal.(t) <- true) terminals;
  {
    k;
    order = Array.copy order;
    first_pos;
    last_pos;
    terminal_arr = Array.of_list terminals;
    is_terminal;
    csr = Kernel.Csr.positions g ~order;
  }

(* Index of [x] in the sorted prefix [a.(lo .. hi - 1)], or [-1]. A
   top-level function, so a search allocates no closure. *)
let rec bsearch (a : int array) x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let y = a.(mid) in
    if y = x then mid else if y < x then bsearch a x (mid + 1) hi else bsearch a x lo mid

(* Per-domain working buffers of [step] and [heuristic_log2], grown on
   demand: the merged vertex list and its components (room for the two
   insertions of a step), the terminal counts, departure flags and
   canonical renaming per component, and the per-component degree sums
   of the heuristic. A domain runs one call at a time and every call
   rewrites what it reads, so constructions running as pool tasks on
   different domains never share a buffer, and nothing carries over
   from one call to the next. *)
type work = {
  mutable w_verts : int array;
  mutable w_comp : int array;
  mutable w_removed : Bytes.t;
  mutable w_tc : int array;
  mutable w_rename : int array;
  mutable w_tc_out : int array;
  mutable w_deg : int array;
}

let work_key =
  Domain.DLS.new_key (fun () ->
      {
        w_verts = [||];
        w_comp = [||];
        w_removed = Bytes.empty;
        w_tc = [||];
        w_rename = [||];
        w_tc_out = [||];
        w_deg = [||];
      })

(* The calling domain's buffers, with room for [verts] explicit
   vertices and [comps] components. *)
let work ~verts ~comps =
  let w = Domain.DLS.get work_key in
  if Array.length w.w_verts < verts then begin
    let n = (2 * verts) + 16 in
    w.w_verts <- Array.make n 0;
    w.w_comp <- Array.make n 0;
    w.w_removed <- Bytes.make n '\000'
  end;
  if Array.length w.w_tc < comps then begin
    let n = (2 * comps) + 16 in
    w.w_tc <- Array.make n 0;
    w.w_rename <- Array.make n 0;
    w.w_tc_out <- Array.make n 0;
    w.w_deg <- Array.make n 0
  end;
  w

let removed w i = Bytes.get w.w_removed i <> '\000'
let remove w i = Bytes.set w.w_removed i '\001'

(* Departure of endpoint [x] at [pos] from the [len] merged vertices:
   0 when nothing resolves, 1 when a terminal-bearing component is
   stranded (sink 0), 2 when the component leaving holds every terminal
   (sink 1). Only an endpoint can leave at its edge's position. *)
let leave ctx w ~pos ~len x =
  if ctx.last_pos.(x) <> pos then 0
  else
    let ix = bsearch w.w_verts x 0 len in
    (* An implicit singleton leaving carries no terminal: silent. *)
    if ix < 0 || removed w ix then 0
    else begin
      remove w ix;
      let comp = w.w_comp in
      let c = comp.(ix) in
      (* Does c still have an explicit member? *)
      let members = ref 0 and last_member = ref (-1) in
      for i = 0 to len - 1 do
        if (not (removed w i)) && comp.(i) = c then begin
          incr members;
          last_member := i
        end
      done;
      let t = w.w_tc.(c) in
      if !members = 0 then if t = ctx.k then 2 else if t > 0 then 1 else 0
      else begin
        (* Demote the leftover lone non-terminal to implicit. *)
        if !members = 1 && t = 0 then remove w !last_member;
        0
      end
    end

let step ctx ~eager ~pos st ~exists =
  let u = ctx.csr.Kernel.Csr.eu.(pos) and v = ctx.csr.Kernel.Csr.ev.(pos) in
  let nv = Array.length st.verts and nc = Array.length st.tc in
  let w = work ~verts:(nv + 2) ~comps:(nc + 2) in
  let w_verts = w.w_verts and w_comp = w.w_comp and w_tc = w.w_tc in
  Array.blit st.tc 0 w_tc 0 nc;
  (* Materialisation set: a vertex joins the explicit representation if
     it is an entering terminal, or an endpoint of an existent non-loop
     edge (its component will have size >= 2). Up to two insertions,
     [p1 < p2], [-1] for none. *)
  let joins = exists && u <> v in
  let ins_u =
    (joins || (ctx.first_pos.(u) = pos && ctx.is_terminal.(u)))
    && bsearch st.verts u 0 nv < 0
  in
  let ins_v =
    v <> u
    && (joins || (ctx.first_pos.(v) = pos && ctx.is_terminal.(v)))
    && bsearch st.verts v 0 nv < 0
  in
  let lo = if u < v then u else v and hi = if u < v then v else u in
  let p1 = if ins_u && ins_v then lo else if ins_u then u else if ins_v then v else -1 in
  let p2 = if ins_u && ins_v then hi else -1 in
  (* Merge old verts with the insertions, both sorted. A new singleton
     is terminal iff it is a terminal vertex (it may have entered
     earlier as an implicit non-terminal only if not a terminal). *)
  let len = ref 0 and n_comp = ref nc and i = ref 0 in
  let pend = ref p1 and pend2 = ref p2 in
  while !i < nv || !pend >= 0 do
    if !pend >= 0 && (!i >= nv || !pend < st.verts.(!i)) then begin
      let p = !pend in
      w_verts.(!len) <- p;
      w_comp.(!len) <- !n_comp;
      w_tc.(!n_comp) <- (if ctx.is_terminal.(p) then 1 else 0);
      incr n_comp;
      pend := !pend2;
      pend2 := -1
    end
    else begin
      w_verts.(!len) <- st.verts.(!i);
      w_comp.(!len) <- st.comp_of.(!i);
      incr i
    end;
    incr len
  done;
  let len = !len in
  (* Apply an existent edge: merge the endpoint components. *)
  let early_sink1 = ref false in
  if joins then begin
    let cu = w_comp.(bsearch w_verts u 0 len) and cv = w_comp.(bsearch w_verts v 0 len) in
    if cu <> cv then begin
      let keep = if cu < cv then cu else cv and dead = if cu < cv then cv else cu in
      for j = 0 to len - 1 do
        if w_comp.(j) = dead then w_comp.(j) <- keep
      done;
      w_tc.(keep) <- w_tc.(keep) + w_tc.(dead);
      w_tc.(dead) <- 0;
      if eager && w_tc.(keep) = ctx.k then early_sink1 := true
    end
  end;
  if !early_sink1 then Sink1
  else begin
    Bytes.fill w.w_removed 0 len '\000';
    let left_u = leave ctx w ~pos ~len u in
    let left_v = if v <> u then leave ctx w ~pos ~len v else 0 in
    if left_u = 2 || left_v = 2 then Sink1
    else if left_u = 1 || left_v = 1 then Sink0
    else begin
      (* Compact and canonically renumber: components by first
         appearance, so equal partitions are equal arrays. *)
      let rename = w.w_rename and tc_out = w.w_tc_out in
      Array.fill rename 0 !n_comp (-1);
      let out_len = ref 0 and n_comps = ref 0 in
      for j = 0 to len - 1 do
        if not (removed w j) then begin
          incr out_len;
          let c = w_comp.(j) in
          if rename.(c) < 0 then begin
            rename.(c) <- !n_comps;
            tc_out.(!n_comps) <- w_tc.(c);
            incr n_comps
          end
        end
      done;
      let verts = Array.make !out_len 0 and comp_of = Array.make !out_len 0 in
      let cursor = ref 0 in
      for j = 0 to len - 1 do
        if not (removed w j) then begin
          verts.(!cursor) <- w_verts.(j);
          comp_of.(!cursor) <- rename.(w_comp.(j));
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
  let base = (2 * nv) + 1 in
  for i = 0 to nt - 1 do
    key.(base + i) <- (if st.tc.(i) > 0 then 1 else 0)
  done;
  key

let component_count st = Array.length st.tc
let component_terminals st = Array.copy st.tc

let heuristic_log2 ctx ~rem st ~log2_pn =
  let k = float_of_int ctx.k in
  let nc = Array.length st.tc in
  (* [rem] is the caller-maintained remaining-degree table;
     per-component d sums come from it in O(state size). *)
  let d = (work ~verts:0 ~comps:nc).w_deg in
  Array.fill d 0 nc 0;
  for i = 0 to Array.length st.verts - 1 do
    let c = st.comp_of.(i) in
    d.(c) <- d.(c) + rem.(st.verts.(i))
  done;
  (* A comparison rather than [Float.max], a call into another module
     that would box its arguments; both candidates are positive and
     finite, so the two agree. *)
  let best = ref neg_infinity in
  for c = 0 to nc - 1 do
    let t = st.tc.(c) in
    if t > 0 then begin
      let dc = if d.(c) > 1 then d.(c) else 1 in
      let by_t = float_of_int t /. k and by_d = 1. /. float_of_int dc in
      let f = if by_d > by_t then by_d else by_t in
      if f > !best then best := f
    end
  done;
  let factor =
    if !best > neg_infinity then !best
    else 1. /. (2. *. k *. float_of_int (1 + Array.length st.verts))
  in
  log2_pn +. Float.log2 factor

(* Complete the possible graph from a node: draw the remaining
   positions through the flat kernel (present-position buffer, packed
   mask words when [detail]) and check connectivity with the early-exit
   union-find. The node's explicit components are anchored to virtual
   elements [n + comp_id] (vertices are [0 .. n-1]); implicit
   singletons need no anchor. The terminals to connect are the flagged
   components plus terminals that have not entered the frontier yet.
   Anchors are unioned before the terminal marks — safe, because an
   anchor union only ever touches roots with [tcnt = 0], so [live]
   stays untouched; the marks must precede [union_drawn], which
   early-exits on the live count. *)
let descend_kernel ctx ~scratch ~detail ~pos st rng =
  let n = ctx.csr.Kernel.Csr.n in
  let nc = Array.length st.tc in
  Kernel.draw_sub scratch ctx.csr ~pos ~detail rng;
  Kernel.round_begin scratch ~elems:(n + nc);
  for i = 0 to Array.length st.verts - 1 do
    Kernel.union scratch st.verts.(i) (n + st.comp_of.(i))
  done;
  for c = 0 to nc - 1 do
    if st.tc.(c) > 0 then Kernel.mark scratch (n + c)
  done;
  let terminals = ctx.terminal_arr in
  for i = 0 to Array.length terminals - 1 do
    if ctx.first_pos.(terminals.(i)) >= pos then Kernel.mark scratch terminals.(i)
  done;
  Kernel.union_drawn scratch ctx.csr

let descent_log_q ctx ~scratch = Kernel.drawn_log_q scratch ctx.csr

(* Hash and equality are plain loops, with no closure or ref per call.
   The construction's iteration order depends on the hash values, so
   they must stay those of this FNV-1a fold. *)
let rec equal_from (a : int array) (b : int array) i n =
  i >= n || (a.(i) = b.(i) && equal_from a b (i + 1) n)

module Key_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let n = Array.length a in
    n = Array.length b && equal_from a b 0 n

  let hash a =
    (* FNV-1a over every element; Hashtbl.hash would only inspect a
       bounded prefix, which collides badly on wide frontiers. Unlike
       the completion hashes of the descents (Hash64) this one only
       buckets — keys are compared by structural equality on
       collision — so FNV's weak diffusion costs at most table
       balance, never correctness. *)
    let h = ref 0x811C9DC5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor (a.(i) + 0x9E3779B9)) * 0x01000193 land max_int
    done;
    !h
end)
