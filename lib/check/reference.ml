(* The pre-kernel sampling and descent paths, kept as the differential
   oracle for the production kernels. See reference.mli. *)

module F = Bddbase.Fstate

let validate g ~terminals ~samples =
  Ugraph.validate_terminals g terminals;
  if samples <= 0 then invalid_arg "Check.Reference: samples <= 0"

(* The [k < 2] answer, as the production samplers report it. *)
let trivial =
  { Mcsampling.value = 1.; samples_used = 0; hits = 0; distinct = 0;
    variance_estimate = 0.; jobs_used = Par.effective_jobs 1;
    chunk_samples = [||] }

(* Draw one possible graph into [present]; returns its probability. *)
let draw_sample rng g present =
  let prob = ref Xprob.one in
  Ugraph.iter_edges
    (fun eid (e : Ugraph.edge) ->
      if Prng.bernoulli rng e.p then begin
        present.(eid) <- true;
        prob := Xprob.scale e.p !prob
      end
      else begin
        present.(eid) <- false;
        prob := Xprob.scale (1. -. e.p) !prob
      end)
    g;
  !prob

(* The per-chunk master streams, split in chunk order from the seed:
   stream [i] belongs to chunk [i], as in [Mcsampling.Chunked]. *)
let chunk_streams ~seed n =
  let master = Prng.create seed in
  Array.init n (fun _ -> Prng.split master)

let ln2 = Float.log 2.
let ht_weight_x q_x s = Mcsampling.ht_weight ~logq:(Xprob.log2 q_x *. ln2) ~n:s

let monte_carlo ?(seed = 1) g ~terminals ~samples =
  validate g ~terminals ~samples;
  if List.length terminals < 2 then trivial
  else begin
    let m = Ugraph.n_edges g in
    let n = Ugraph.n_vertices g in
    let chunks =
      Par.chunks ~total:samples ~target:(Mcsampling.chunk_target_for ~edges:m)
    in
    let rngs = chunk_streams ~seed (Array.length chunks) in
    let present = Array.make m false in
    let dsu = Dsu.create n in
    let hits = ref 0 in
    Array.iteri
      (fun i (_, len) ->
        let rng = rngs.(i) in
        for _ = 1 to len do
          Ugraph.iter_edges
            (fun eid (e : Ugraph.edge) ->
              present.(eid) <- Prng.bernoulli rng e.p)
            g;
          if Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present
               terminals
          then incr hits
        done)
      chunks;
    let hits = !hits in
    let value = float_of_int hits /. float_of_int samples in
    {
      Mcsampling.value;
      samples_used = samples;
      hits;
      distinct = 0;
      variance_estimate = value *. (1. -. value) /. float_of_int samples;
      jobs_used = Par.effective_jobs 1;
      chunk_samples = Array.map snd chunks;
    }
  end

let horvitz_thompson ?(seed = 1) g ~terminals ~samples =
  validate g ~terminals ~samples;
  if List.length terminals < 2 then trivial
  else begin
    let m = Ugraph.n_edges g in
    let n = Ugraph.n_vertices g in
    let chunks =
      Par.chunks ~total:samples ~target:(Mcsampling.chunk_target_for ~edges:m)
    in
    let rngs = chunk_streams ~seed (Array.length chunks) in
    let present = Array.make m false in
    let dsu = Dsu.create n in
    let chunk_tables =
      Array.mapi
        (fun i (_, len) ->
          let rng = rngs.(i) in
          let seen : (int, Xprob.t * bool) Hashtbl.t = Hashtbl.create len in
          let order = ref [] in
          for _ = 1 to len do
            let prob = draw_sample rng g present in
            let h = Hash64.mask present m in
            if not (Hashtbl.mem seen h) then begin
              let connected =
                Graphalgo.Connectivity.terminals_connected_dsu dsu g ~present
                  terminals
              in
              Hashtbl.add seen h (prob, connected);
              order := h :: !order
            end
          done;
          (seen, List.rev !order))
        chunks
    in
    let entries =
      let merged : (int, unit) Hashtbl.t = Hashtbl.create samples in
      let entries = ref [] in
      Array.iter
        (fun (tab, order) ->
          List.iter
            (fun h ->
              if not (Hashtbl.mem merged h) then begin
                Hashtbl.add merged h ();
                entries := Hashtbl.find tab h :: !entries
              end)
            order)
        chunk_tables;
      List.rev !entries
    in
    let hits =
      List.fold_left
        (fun acc (_, connected) -> if connected then acc + 1 else acc)
        0 entries
    in
    let value =
      List.fold_left
        (fun acc (q, connected) ->
          if connected then acc +. ht_weight_x q samples else acc)
        0. entries
    in
    let s_f = float_of_int samples in
    let correction =
      List.fold_left
        (fun acc (q, connected) ->
          if connected then
            acc +. ((s_f -. 1.) *. Xprob.to_float_approx (Xprob.mul q q))
          else acc)
        0. entries
    in
    let v = (value *. (1. -. value) /. s_f) -. (correction /. (2. *. s_f)) in
    {
      Mcsampling.value;
      samples_used = samples;
      hits;
      distinct = List.length entries;
      variance_estimate = Float.max 0. v;
      jobs_used = Par.effective_jobs 1;
      chunk_samples = Array.map snd chunks;
    }
  end

let descend ctx ~eager ~pos st ~bernoulli =
  let m = F.n_positions ctx in
  let rec go pos st =
    if pos >= m then
      invalid_arg "Check.Reference.descend: reached the end without sinking"
    else
      let e = F.edge_at ctx pos in
      let exists = bernoulli e.Ugraph.p in
      match F.step ctx ~eager ~pos st ~exists with
      | F.Sink1 -> true
      | F.Sink0 -> false
      | F.Live st' -> go (pos + 1) st'
  in
  go pos st

(* Whether terminal [t] is an endpoint of an edge before [pos], i.e.
   has entered the frontier. *)
let entered ctx ~pos t =
  let rec go p =
    p < pos
    &&
    let e = F.edge_at ctx p in
    e.Ugraph.u = t || e.Ugraph.v = t || go (p + 1)
  in
  go 0

(* Complete the possible graph directly and run one union-find
   connectivity check. The node's explicit components are anchored to
   virtual DSU elements [n + comp_id]; implicit singletons need no
   anchor. The terminals to connect are the flagged components plus
   terminals that have not entered the frontier yet. The state is read
   through its exact key, [verts | comp_of | -1 | tc]. *)
let descend_union ctx g ~terminals ~dsu ~detail ~pos st ~bernoulli =
  let n = Ugraph.n_vertices g in
  let key = F.key_exact st in
  let rec sep i = if key.(i) < 0 then i else sep (i + 1) in
  let tc_base = sep 0 + 1 in
  let nv = (tc_base - 1) / 2 in
  let nc = Array.length key - tc_base in
  if Dsu.size dsu < n + nc then
    invalid_arg "Check.Reference.descend_union: DSU too small";
  Dsu.reset dsu;
  let m = F.n_positions ctx in
  (* Completion identity for the HT dedup: a full-avalanche 62-bit hash
     of the drawn edge outcomes (Hash64). *)
  let hs = Hash64.Stream.create () in
  let logq = ref 0. in
  if detail then
    (* HT needs the completion's identity and conditional probability. *)
    for p = pos to m - 1 do
      let e = F.edge_at ctx p in
      let pe = e.Ugraph.p in
      let exists = bernoulli pe in
      Hash64.Stream.add_bit hs exists;
      if exists then begin
        if pe < 1. then logq := !logq +. Float.log pe;
        ignore (Dsu.union dsu e.Ugraph.u e.Ugraph.v)
      end
      else logq := !logq +. Float.log1p (-.pe)
    done
  else
    for p = pos to m - 1 do
      let e = F.edge_at ctx p in
      if bernoulli e.Ugraph.p then ignore (Dsu.union dsu e.Ugraph.u e.Ugraph.v)
    done;
  for i = 0 to nv - 1 do
    ignore (Dsu.union dsu key.(i) (n + key.(nv + i)))
  done;
  let anchor = ref (-1) in
  let connected = ref true in
  let require x =
    if !anchor < 0 then anchor := Dsu.find dsu x
    else if Dsu.find dsu x <> !anchor then connected := false
  in
  for c = 0 to nc - 1 do
    if key.(tc_base + c) > 0 then require (n + c)
  done;
  List.iter (fun t -> if not (entered ctx ~pos t) then require t) terminals;
  (!connected, Hash64.Stream.finish hs, !logq)

(* ---- edge-list readers ---- *)

(* The line-at-a-time readers that [Ugraph.Scan] replaced, kept as the
   differential oracle of the text and SNAP formats. Only what they
   reached inside their modules changed: the arrays go to
   [Ugraph.of_arrays] (and on to [Bingraph.of_graph]), which build the
   same graph as the internal constructors, and the SNAP id table is a
   plain [Hashtbl]. *)

module Text = struct
  let is_blank = function ' ' | '\t' | '\r' -> true | _ -> false

  let rec skip_blanks line i =
    if i < String.length line && is_blank line.[i] then skip_blanks line (i + 1) else i

  let rec token_end line i =
    if i < String.length line && not (is_blank line.[i]) then token_end line (i + 1)
    else i

  let rec digits line i stop acc =
    if i = stop then acc
    else
      match line.[i] with
      | '0' .. '9' as c -> digits line (i + 1) stop ((acc * 10) + Char.code c - Char.code '0')
      | _ -> -1

  let bad line why =
    invalid_arg
      (Printf.sprintf "Ugraph.of_channel: %s in edge line %S" why (String.trim line))

  let vertex line ~n start stop =
    let x = if stop - start <= 18 then digits line start stop 0 else -1 in
    if x >= 0 && x < n then x
    else
      let s = String.sub line start (stop - start) in
      match int_of_string_opt s with
      | Some x when x >= 0 && x < n -> x
      | Some x -> bad line (Printf.sprintf "vertex id %d outside [0,%d)" x n)
      | None -> bad line (Printf.sprintf "unreadable vertex id %S" s)

  let max_reserve = 1 lsl 20

  let parse_stream ~next_line =
    let declared_edges = ref (-1) in
    let first_line = ref true in
    let n = ref (-1) in
    let eu = ref [||] and ev = ref [||] and ep = ref [||] in
    let m = ref 0 in
    let reserve cap =
      let grow a zero =
        let b = Array.make cap zero in
        Array.blit a 0 b 0 !m;
        b
      in
      eu := grow !eu 0;
      ev := grow !ev 0;
      ep := grow !ep 0.
    in
    let rec go () =
      match next_line () with
      | exception End_of_file -> ()
      | line ->
        let s1 = skip_blanks line 0 in
        let e1 = token_end line s1 in
        (if s1 = e1 then ()
         else if line.[s1] = '#' then begin
           if !first_line then
             match
               Scanf.sscanf line " # uncertain graph: %d vertices, %d edges" (fun _ m' -> m')
             with
             | m' ->
               declared_edges := m';
               reserve (min (max m' 0) max_reserve)
             | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
         end
         else if !n < 0 then begin
           match (skip_blanks line e1 = String.length line,
                  int_of_string_opt (String.sub line s1 (e1 - s1))) with
           | true, Some count ->
             if count < 0 || count > Ugraph.max_vertices then
               invalid_arg
                 (Printf.sprintf "Ugraph.of_channel: vertex count %d outside [0,%d]"
                    count Ugraph.max_vertices);
             n := count
           | _ -> invalid_arg "Ugraph.of_channel: bad vertex count line"
         end
         else begin
           let s2 = skip_blanks line e1 in
           let e2 = token_end line s2 in
           let s3 = skip_blanks line e2 in
           let e3 = token_end line s3 in
           if s2 = e2 || s3 = e3 || skip_blanks line e3 < String.length line then
             bad line "expected three fields `u v p`";
           let u = vertex line ~n:!n s1 e1 in
           let v = vertex line ~n:!n s2 e2 in
           let s = String.sub line s3 (e3 - s3) in
           match float_of_string s with
           | exception Failure _ -> bad line (Printf.sprintf "unreadable probability %S" s)
           | p when not (p >= 0. && p <= 1.) ->
             bad line (Printf.sprintf "probability %g outside [0,1]" p)
           | p ->
             if !m = Array.length !eu then reserve (max 1024 (2 * !m));
             !eu.(!m) <- u;
             !ev.(!m) <- v;
             !ep.(!m) <- p;
             incr m
         end);
        first_line := false;
        go ()
    in
    go ();
    if !n < 0 then invalid_arg "Ugraph.of_channel: empty input";
    if !declared_edges >= 0 && !declared_edges <> !m then
      invalid_arg
        (Printf.sprintf
           "Ugraph.of_channel: truncated input: header declares %d edges, got %d"
           !declared_edges !m);
    let fit a = if Array.length a = !m then a else Array.sub a 0 !m in
    Ugraph.of_arrays ~n:!n ~eu:(fit !eu) ~ev:(fit !ev) ~ep:(fit !ep)

  let of_channel ic = parse_stream ~next_line:(fun () -> input_line ic)

  let of_string s =
    let pos = ref 0 in
    parse_stream ~next_line:(fun () ->
        if !pos > String.length s then raise End_of_file;
        let stop =
          match String.index_from_opt s !pos '\n' with
          | Some i -> i
          | None -> String.length s
        in
        let line = String.sub s !pos (stop - !pos) in
        pos := stop + 1;
        line)

  let of_file path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)
end

module Snap = struct
  type store = {
    mutable eu : int array;
    mutable ev : int array;
    mutable ep : float array;
    mutable len : int;
  }

  let store () = { eu = Array.make 1024 0; ev = Array.make 1024 0;
                   ep = Array.make 1024 0.; len = 0 }

  let push s u v p =
    if s.len = Array.length s.eu then begin
      let grow a zero =
        let b = Array.make (2 * Array.length a) zero in
        Array.blit a 0 b 0 s.len; b
      in
      s.eu <- grow s.eu 0; s.ev <- grow s.ev 0; s.ep <- grow s.ep 0.
    end;
    s.eu.(s.len) <- u; s.ev.(s.len) <- v; s.ep.(s.len) <- p;
    s.len <- s.len + 1

  let bad ~line fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Bingraph.Snap: line %d: %s" line msg))
      fmt

  let is_ws c = c = ' ' || c = '\t' || c = '\r'

  let next_token l pos =
    let len = String.length l in
    while !pos < len && is_ws l.[!pos] do incr pos done;
    if !pos >= len then None
    else begin
      let start = !pos in
      while !pos < len && not (is_ws l.[!pos]) do incr pos done;
      Some (start, !pos)
    end

  (* Folds any digit run into a native int: past [max_int] it wraps,
     the overflow the production reader refuses. *)
  let token_int l (start, stop) ~line ~what =
    let v = ref 0 and ok = ref (stop > start) in
    for i = start to stop - 1 do
      match l.[i] with
      | '0' .. '9' as c -> v := (!v * 10) + (Char.code c - Char.code '0')
      | _ -> ok := false
    done;
    if not !ok then
      bad ~line "unreadable %s %S" what (String.sub l start (stop - start));
    !v

  let token_prob l (start, stop) ~line =
    let s = String.sub l start (stop - start) in
    match float_of_string_opt s with
    | None -> bad ~line "unreadable probability %S" s
    | Some p ->
      if not (p >= 0. && p <= 1.) then bad ~line "probability %g outside [0,1]" p;
      p

  let parse ?(default_prob = 0.5) ~next_line () =
    if not (default_prob >= 0. && default_prob <= 1.) then
      invalid_arg
        (Printf.sprintf "Bingraph.Snap: default probability %g outside [0,1]"
           default_prob);
    let ids = Hashtbl.create 4096 in
    let n = ref 0 in
    let compact id =
      match Hashtbl.find_opt ids id with
      | Some c -> c
      | None ->
        let c = !n in
        Hashtbl.add ids id c;
        incr n;
        c
    in
    let s = store () in
    let line = ref 0 in
    let rec go () =
      match next_line () with
      | None -> ()
      | Some l ->
        incr line;
        let pos = ref 0 in
        (match next_token l pos with
         | None -> ()
         | Some (start, _) when (match l.[start] with '#' | '%' -> true | _ -> false) ->
           ()
         | Some t1 ->
           let u = token_int l t1 ~line:!line ~what:"vertex id" in
           (match next_token l pos with
            | None -> bad ~line:!line "expected `u v [p]`, got one field"
            | Some t2 ->
              let v = token_int l t2 ~line:!line ~what:"vertex id" in
              let p =
                match next_token l pos with
                | None -> default_prob
                | Some t3 -> token_prob l t3 ~line:!line
              in
              let cu = compact u in
              let cv = compact v in
              push s cu cv p));
        go ()
    in
    go ();
    if s.len = 0 then invalid_arg "Bingraph.Snap: no edges in input";
    let m = s.len in
    Bingraph.of_graph
      (Ugraph.of_arrays ~n:!n ~eu:(Array.sub s.eu 0 m) ~ev:(Array.sub s.ev 0 m)
         ~ep:(Array.sub s.ep 0 m))

  let of_channel ?default_prob ic =
    let next_line () = In_channel.input_line ic in
    parse ?default_prob ~next_line ()

  let of_file ?default_prob path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    of_channel ?default_prob ic

  let of_string ?default_prob str =
    let pos = ref 0 in
    let next_line () =
      if !pos >= String.length str then None
      else begin
        let stop =
          match String.index_from_opt str !pos '\n' with
          | Some i -> i
          | None -> String.length str
        in
        let l = String.sub str !pos (stop - !pos) in
        pos := stop + 1;
        Some l
      end
    in
    parse ?default_prob ~next_line ()
end

(* ---- float rendering ---- *)

let float_repr x =
  let s = Printf.sprintf "%.12g" x in
  let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s
  else s ^ ".0"
