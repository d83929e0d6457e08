(* Binary uncertain-graph container: packed int32/float64 edge arrays
   behind a fixed little-endian header, mmap-able in O(1). See the .mli
   for the on-disk layout. *)

type int32_arr = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type float64_arr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  m : int;
  eu : int32_arr;
  ev : int32_arr;
  ep : float64_arr;
  digest : int;
}

let magic = "NRBG0001"
let header_bytes = 40
let order_tag = 0x0123456789ABCDEFL
let mask62 = 0x3FFF_FFFF_FFFF_FFFFL

let n_vertices t = t.n
let n_edges t = t.m
let digest t = t.digest

let edge t i =
  if i < 0 || i >= t.m then
    invalid_arg (Printf.sprintf "Bingraph.edge: index %d outside [0,%d)" i t.m);
  { Ugraph.u = Int32.to_int t.eu.{i}; v = Int32.to_int t.ev.{i}; p = t.ep.{i} }

module Digest = struct
  (* Must stay bit-compatible with the engine cache key: chained
     splitmix64 over vertex count then exact (u, v, p) bit patterns in
     edge order ([Engine.digest] delegates here).

     The finalizer is Hash64.mix64, written out again here so that it
     inlines into the loops below: a call into another module is never
     inlined under the dev profile's -opaque, so each call would box
     its int64 argument and result (27 words per edge). Inlined, the
     accumulator stays in a register and a digest allocates nothing. *)
  let[@inline] mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let[@inline] fold acc w = mix (Int64.add (Int64.mul acc 0x9E3779B97F4A7C15L) w)

  let of_graph (g : Ugraph.t) =
    let acc = ref (mix (Int64.of_int g.n)) in
    for i = 0 to g.m - 1 do
      acc := fold !acc (Int64.of_int g.eu.(i));
      acc := fold !acc (Int64.of_int g.ev.(i));
      acc := fold !acc (Int64.bits_of_float g.ep.(i))
    done;
    Int64.to_int (Int64.logand !acc mask62)

  let of_packed ~n ~m (eu : int32_arr) (ev : int32_arr) (ep : float64_arr) =
    let acc = ref (mix (Int64.of_int n)) in
    for i = 0 to m - 1 do
      acc := fold !acc (Int64.of_int32 eu.{i});
      acc := fold !acc (Int64.of_int32 ev.{i});
      acc := fold !acc (Int64.bits_of_float ep.{i})
    done;
    Int64.to_int (Int64.logand !acc mask62)
end

let alloc_int32 m = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout m
let alloc_float64 m = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout m

let of_graph (g : Ugraph.t) =
  let n = g.n and m = g.m in
  if n > Ugraph.max_vertices then
    invalid_arg (Printf.sprintf "Bingraph.of_graph: %d vertices exceed int32 range" n);
  let eu = alloc_int32 m and ev = alloc_int32 m and ep = alloc_float64 m in
  for i = 0 to m - 1 do
    eu.{i} <- Int32.of_int g.eu.(i);
    ev.{i} <- Int32.of_int g.ev.(i);
    ep.{i} <- g.ep.(i)
  done;
  { n; m; eu; ev; ep; digest = Digest.of_packed ~n ~m eu ev ep }

let to_arrays t =
  let eu = Array.make t.m 0 and ev = Array.make t.m 0 and ep = Array.make t.m 0. in
  for i = 0 to t.m - 1 do
    eu.(i) <- Int32.to_int t.eu.{i};
    ev.(i) <- Int32.to_int t.ev.{i};
    ep.(i) <- t.ep.{i}
  done;
  (eu, ev, ep)

let validate t =
  for i = 0 to t.m - 1 do
    let u = Int32.to_int t.eu.{i} and v = Int32.to_int t.ev.{i} and p = t.ep.{i} in
    if u < 0 || u >= t.n || v < 0 || v >= t.n then
      invalid_arg
        (Printf.sprintf "Bingraph.validate: edge %d endpoints (%d,%d) outside [0,%d)"
           i u v t.n);
    if not (p >= 0. && p <= 1.) then
      invalid_arg
        (Printf.sprintf "Bingraph.validate: edge %d probability %g outside [0,1]" i p)
  done

(* The arrays become the graph's own; [Ugraph.of_arrays] checks them,
   the load's one pass over the edges. Only when that check fails does
   [validate] run, to name the bad edge by its index in the file. *)
let to_graph t =
  let eu, ev, ep = to_arrays t in
  try Ugraph.of_arrays ~n:t.n ~eu ~ev ~ep
  with Invalid_argument _ as e ->
    validate t;
    raise e

(* --- byte codec ------------------------------------------------------ *)

let file_bytes m = header_bytes + (16 * m)

let write_header b ~n ~m ~digest =
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int n);
  Bytes.set_int64_le b 16 (Int64.of_int m);
  Bytes.set_int64_le b 24 (Int64.of_int digest);
  Bytes.set_int64_le b 32 order_tag

let check_header ~what b ~total_len =
  if Bytes.length b < header_bytes then
    invalid_arg (Printf.sprintf "Bingraph.%s: truncated header (%d bytes)" what
                   (Bytes.length b));
  if Bytes.sub_string b 0 8 <> magic then
    invalid_arg (Printf.sprintf "Bingraph.%s: bad magic (not a %s file)" what magic);
  let n = Int64.to_int (Bytes.get_int64_le b 8) in
  let m = Int64.to_int (Bytes.get_int64_le b 16) in
  let digest = Int64.to_int (Bytes.get_int64_le b 24) in
  if Bytes.get_int64_le b 32 <> order_tag then
    invalid_arg
      (Printf.sprintf "Bingraph.%s: byte-order tag mismatch (foreign-endian file?)"
         what);
  if n < 0 || m < 0 then
    invalid_arg (Printf.sprintf "Bingraph.%s: negative counts n=%d m=%d" what n m);
  if n > Ugraph.max_vertices then
    invalid_arg
      (Printf.sprintf "Bingraph.%s: vertex count %d outside [0,%d]" what n
         Ugraph.max_vertices);
  if total_len <> file_bytes m then
    invalid_arg
      (Printf.sprintf
         "Bingraph.%s: size mismatch: header declares %d edges (%d bytes) but \
          input has %d bytes (truncated?)"
         what m (file_bytes m) total_len);
  (n, m, digest)

let to_bytes t =
  let b = Bytes.create (file_bytes t.m) in
  write_header b ~n:t.n ~m:t.m ~digest:t.digest;
  let off_eu = header_bytes and off_ev = header_bytes + (4 * t.m) in
  let off_ep = header_bytes + (8 * t.m) in
  for i = 0 to t.m - 1 do
    Bytes.set_int32_le b (off_eu + (4 * i)) t.eu.{i};
    Bytes.set_int32_le b (off_ev + (4 * i)) t.ev.{i};
    Bytes.set_int64_le b (off_ep + (8 * i)) (Int64.bits_of_float t.ep.{i})
  done;
  b

let of_bytes b =
  let n, m, digest = check_header ~what:"of_bytes" b ~total_len:(Bytes.length b) in
  let eu = alloc_int32 m and ev = alloc_int32 m and ep = alloc_float64 m in
  let off_eu = header_bytes and off_ev = header_bytes + (4 * m) in
  let off_ep = header_bytes + (8 * m) in
  for i = 0 to m - 1 do
    eu.{i} <- Bytes.get_int32_le b (off_eu + (4 * i));
    ev.{i} <- Bytes.get_int32_le b (off_ev + (4 * i));
    ep.{i} <- Int64.float_of_bits (Bytes.get_int64_le b (off_ep + (8 * i)))
  done;
  { n; m; eu; ev; ep; digest }

let to_file path t =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_bytes oc (to_bytes t)

let of_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  of_bytes b

(* --- mmap load ------------------------------------------------------- *)

let really_read fd b len =
  let got = ref 0 in
  (try
     while !got < len do
       let k = Unix.read fd b !got (len - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit -> ());
  !got

let map1 (type a b) fd ~pos (kind : (a, b) Bigarray.kind) m :
    (a, b, Bigarray.c_layout) Bigarray.Array1.t =
  if m = 0 then Bigarray.Array1.create kind Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false [| m |])

let load path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let hdr = Bytes.create header_bytes in
  let got = really_read fd hdr header_bytes in
  if got < header_bytes then
    invalid_arg (Printf.sprintf "Bingraph.load: %s: truncated header (%d bytes)"
                   path got);
  let total_len = (Unix.fstat fd).Unix.st_size in
  let n, m, digest = check_header ~what:"load" hdr ~total_len in
  let eu = map1 fd ~pos:header_bytes Bigarray.int32 m in
  let ev = map1 fd ~pos:(header_bytes + (4 * m)) Bigarray.int32 m in
  let ep = map1 fd ~pos:(header_bytes + (8 * m)) Bigarray.float64 m in
  { n; m; eu; ev; ep; digest }

let is_binary_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let b = Bytes.create 8 in
    (match really_input ic b 0 8 with
     | () -> Bytes.to_string b = magic
     | exception End_of_file -> false)

(* --- streaming SNAP / KONECT parser ---------------------------------- *)

module Snap = struct
  module Scan = Ugraph.Scan

  let bad ~line fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Bingraph.Snap: line %d: %s" line msg))
      fmt

  (* A file id: plain decimal digits only. Up to 18 are read in place;
     a longer run goes through [int_of_string_opt], so an id past
     [max_int] is refused rather than wrapped onto another. *)
  let id b i j ~line =
    let x = Scan.decimal b i j in
    if x >= 0 then x
    else
      let s = Bytes.sub_string b i (j - i) in
      match
        if String.for_all (function '0' .. '9' -> true | _ -> false) s then
          int_of_string_opt s
        else None
      with
      | Some x -> x
      | None -> bad ~line "unreadable vertex id %S" s

  let prob b i j ~line =
    let s = Bytes.sub_string b i (j - i) in
    match float_of_string_opt s with
    | None -> bad ~line "unreadable probability %S" s
    | Some p ->
      if not (p >= 0. && p <= 1.) then bad ~line "probability %g outside [0,1]" p;
      p

  (* File ids to compact ids, hashed and compared without a C call. *)
  module Ids = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash x = (x * 0x9E3779B97F4A7C1) lsr 17
  end)

  let parse ?(default_prob = 0.5) input =
    if not (default_prob >= 0. && default_prob <= 1.) then
      invalid_arg
        (Printf.sprintf "Bingraph.Snap: default probability %g outside [0,1]"
           default_prob);
    let ids = Ids.create 4096 in
    let compact id =
      match Ids.find ids id with
      | c -> c
      | exception Not_found ->
        let c = Ids.length ids in
        Ids.add ids id c;
        c
    in
    let es = Scan.edges 0 in
    let line = ref 0 in
    Scan.lines input (fun b start stop ->
        incr line;
        let line = !line in
        let s1 = Scan.skip_blanks b start stop in
        let e1 = Scan.token_end b s1 stop in
        if s1 = e1 || (match Bytes.get b s1 with '#' | '%' -> true | _ -> false)
        then () (* blank, comment or KONECT header *)
        else begin
          let u = id b s1 e1 ~line in
          let s2 = Scan.skip_blanks b e1 stop in
          if s2 = stop then bad ~line "expected `u v [p]`, got one field";
          let e2 = Scan.token_end b s2 stop in
          let v = id b s2 e2 ~line in
          let s3 = Scan.skip_blanks b e2 stop in
          let p =
            if s3 = stop then default_prob
            else prob b s3 (Scan.token_end b s3 stop) ~line
            (* further columns (KONECT timestamps) are ignored *)
          in
          (* bind [compact u] first: argument positions evaluate
             right-to-left, which would flip first-appearance order *)
          let cu = compact u in
          let cv = compact v in
          Scan.push es cu cv p
        end);
    if es.len = 0 then invalid_arg "Bingraph.Snap: no edges in input";
    let m = es.len in
    let eu = alloc_int32 m and ev = alloc_int32 m and ep = alloc_float64 m in
    for i = 0 to m - 1 do
      eu.{i} <- Int32.of_int es.eu.(i);
      ev.{i} <- Int32.of_int es.ev.(i);
      ep.{i} <- es.ep.(i)
    done;
    let n = Ids.length ids in
    { n; m; eu; ev; ep; digest = Digest.of_packed ~n ~m eu ev ep }

  let of_channel ?default_prob ic = parse ?default_prob (input ic)

  let of_file ?default_prob path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    of_channel ?default_prob ic

  let of_string ?default_prob str = parse ?default_prob (Scan.string_input str)
end
