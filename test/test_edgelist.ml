(* Differential fuzzing of the edge-list readers: [Ugraph]'s text format
   and [Bingraph.Snap], both on [Ugraph.Scan], against the line-at-a-time
   readers they replaced ([Check.Reference.Text] and [.Snap]). Inputs
   are canonical text files and SNAP-style lines, mutated byte by byte
   and line by line, at sizes from a few lines to several scan buffers,
   with a line longer than one buffer. Through both [of_string] and
   [of_file], the two readers must build the same graph (vertex and
   edge counts, endpoints, probability bits) or raise [Invalid_argument]
   with the same message; any other exception fails the test.

   The one declared difference: a SNAP vertex id past [max_int], which
   the reference folds into a native int (wrapping onto another id) and
   the production reader refuses as unreadable. *)

module R = Check.Reference
module B = Bingraph

(* The buffer [Ugraph.Scan] reads into; inputs of several of these
   make lines straddle its boundaries. *)
let scan_buffer = 65536

let outcome f = match f () with g -> Ok g | exception Invalid_argument m -> Error m

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_graph (g : Ugraph.t) (h : Ugraph.t) =
  g.n = h.n && g.m = h.m && g.eu = h.eu && g.ev = h.ev && same_bits g.ep h.ep

let same_packed g h =
  let eu, ev, ep = B.to_arrays g and eu', ev', ep' = B.to_arrays h in
  B.n_vertices g = B.n_vertices h
  && B.n_edges g = B.n_edges h
  && eu = eu' && ev = ev' && same_bits ep ep'
  && B.digest g = B.digest h

let show_outcome show = function
  | Ok g -> show g
  | Error m -> "Invalid_argument " ^ m

let show_graph (g : Ugraph.t) = Printf.sprintf "graph n=%d m=%d" g.n g.m

let show_packed g =
  Printf.sprintf "graph n=%d m=%d digest=%x" (B.n_vertices g) (B.n_edges g)
    (B.digest g)

let show_input s =
  if String.length s <= 600 then Printf.sprintf "%S" s
  else Printf.sprintf "<%d bytes> %S..." (String.length s) (String.sub s 0 300)

let with_file s f =
  let path = Filename.temp_file "test_edgelist_" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  f path

(* ---- inputs ---- *)

let alphabet = "0123456789.-+_ex#% \t\r\n"

let pick st a = a.(Random.State.int st (Array.length a))

let prob st =
  match Random.State.int st 8 with
  | 0 -> 0.
  | 1 -> 1.
  | 2 -> 0.5
  | 3 -> ldexp 1. (-1000 - Random.State.int st 70) (* subnormal *)
  | _ -> Random.State.float st 1.

(* The writer's own output: header, count line, [%.17g] probabilities. *)
let canonical_text st ~n ~m =
  let n = max 1 n in
  let eu = Array.init m (fun _ -> Random.State.int st n) in
  let ev = Array.init m (fun _ -> Random.State.int st n) in
  let ep = Array.init m (fun _ -> prob st) in
  let b = Buffer.create (32 * (m + 2)) in
  Ugraph.to_buffer b (Ugraph.of_arrays ~n ~eu ~ev ~ep);
  Buffer.contents b

(* SNAP/KONECT lines: comments of both kinds, blank lines, any blanks
   between fields, CR endings, an optional probability in several
   spellings, extra columns after it, and ids from one digit to
   [max_int] (or past it). *)
let snap_id st ~wide =
  match Random.State.int st 40 with
  | 0 -> "4611686018427387903" (* max_int, 19 digits *)
  | 1 -> "0000000000000000000042" (* 22 digits, value 42 *)
  | 2 when wide -> "9223372036854775809" (* past max_int *)
  | _ ->
    let digits = 1 + Random.State.int st (if Random.State.bool st then 3 else 18) in
    String.init digits (fun _ -> Char.chr (Char.code '0' + Random.State.int st 10))

let snap_line st ~wide b =
  let sep () = pick st [| " "; "\t"; "  "; " \t " |] in
  (match Random.State.int st 12 with
   | 0 -> Buffer.add_string b "# a SNAP comment"
   | 1 -> Buffer.add_string b "% bip unweighted"
   | 2 -> Buffer.add_string b (pick st [| ""; " "; "\t" |])
   | _ ->
     if Random.State.int st 6 = 0 then Buffer.add_string b (sep ());
     Buffer.add_string b (snap_id st ~wide);
     Buffer.add_string b (sep ());
     Buffer.add_string b (snap_id st ~wide);
     if Random.State.int st 4 > 0 then begin
       Buffer.add_string b (sep ());
       Buffer.add_string b
         (match Random.State.int st 4 with
          | 0 -> Printf.sprintf "%.17g" (prob st)
          | 1 -> Printf.sprintf "%g" (prob st)
          | 2 -> pick st [| "1"; "0"; "1e-3"; ".5"; "0.25" |]
          | _ -> Printf.sprintf "%.3f" (prob st));
       if Random.State.int st 8 = 0 then begin
         Buffer.add_string b (sep ());
         Buffer.add_string b (string_of_int (Random.State.int st 1_000_000_000))
       end
     end);
  Buffer.add_string b (if Random.State.int st 5 = 0 then "\r\n" else "\n")

(* [wide] lets an id past [max_int] occur, which ends the comparison. *)
let snap_text st ~wide ~lines =
  let b = Buffer.create (24 * lines) in
  for _ = 1 to lines do snap_line st ~wide b done;
  Buffer.contents b

(* A line longer than the scan buffer, valid or not in either format. *)
let long_line st ~snap =
  let k = scan_buffer + 1 + Random.State.int st 4096 in
  match Random.State.int st 5 with
  | 0 -> "#" ^ String.make k 'x'
  | 1 -> String.make k (pick st [| ' '; '\t' |])
  | 2 -> "0" ^ String.make k ' ' ^ "1 0.5"
  | 3 -> String.make k '0' ^ "1 0 0.5"
  | _ -> if snap then "1 2 0." ^ String.make k '5' else "0 0 0." ^ String.make k '5'

(* Insert [line] before a line break after the first two lines (the
   text format's header and count line). *)
let insert_line st s line =
  let breaks = ref [] in
  String.iteri (fun i c -> if c = '\n' then breaks := i :: !breaks) s;
  match List.rev !breaks with
  | _ :: _ :: (_ :: _ as rest) ->
    let at = List.nth rest (Random.State.int st (List.length rest)) + 1 in
    String.sub s 0 at ^ line ^ "\n" ^ String.sub s at (String.length s - at)
  | _ -> s ^ line ^ "\n"

(* ---- edits ---- *)

let lines_of s = String.split_on_char '\n' s

let edit st s =
  let len = String.length s in
  let at () = if len = 0 then 0 else Random.State.int st (len + 1) in
  let char () = alphabet.[Random.State.int st (String.length alphabet)] in
  match Random.State.int st 9 with
  | 0 | 1 ->
    let i = at () in
    String.sub s 0 i ^ String.make 1 (char ()) ^ String.sub s i (len - i)
  | 2 | 3 when len > 0 ->
    let i = Random.State.int st len in
    String.sub s 0 i ^ String.sub s (i + 1) (len - i - 1)
  | 4 | 5 when len > 0 ->
    let i = Random.State.int st len in
    String.mapi (fun j c -> if j = i then char () else c) s
  | 6 ->
    let ls = lines_of s in
    let k = Random.State.int st (List.length ls) in
    String.concat "\n" (List.filteri (fun i _ -> i <> k) ls)
  | 7 ->
    let ls = lines_of s in
    let k = Random.State.int st (List.length ls) in
    String.concat "\n" (List.concat_map (fun (i, l) -> if i = k then [ l; l ] else [ l ])
                          (List.mapi (fun i l -> (i, l)) ls))
  | _ -> String.sub s 0 (at ())

let mutate st s =
  let k = Random.State.int st 5 in
  let s = ref s in
  for _ = 1 to k do s := edit st !s done;
  !s

(* The vertex count the text readers would size arrays by: the first
   line that is neither blank nor a comment, when it is one field.
   Inputs declaring more than 10^6 vertices (8 bytes each, twice per
   reader) are left out to keep the test small; larger counts up to
   [Ugraph.max_vertices] are legal input, refused ones are kept. *)
let declared_vertices s =
  let fields l =
    String.split_on_char ' '
      (String.map (function '\t' | '\r' -> ' ' | c -> c) l)
    |> List.filter (( <> ) "")
  in
  let rec go = function
    | [] -> None
    | l :: rest -> (
      match fields l with
      | [] -> go rest
      | f :: _ when f.[0] = '#' -> go rest
      | [ f ] -> int_of_string_opt f
      | _ -> None)
  in
  go (lines_of s)

let affordable s =
  match declared_vertices s with
  | Some c -> c <= 1_000_000 || c > Ugraph.max_vertices
  | None -> true

(* ---- the comparisons ---- *)

let agree ~what show same s ours theirs =
  let a = outcome ours and b = outcome theirs in
  let ok =
    match (a, b) with
    | Ok g, Ok h -> same g h
    | Error m, Error m' -> String.equal m m'
    | _ -> false
  in
  if not ok then
    QCheck.Test.fail_reportf "%s differs on %s:@.scanner:   %s@.reference: %s" what
      (show_input s) (show_outcome show a) (show_outcome show b);
  true

let text_agrees s =
  QCheck.assume (affordable s);
  agree ~what:"Ugraph.of_string" show_graph same_graph s
    (fun () -> Ugraph.of_string s) (fun () -> R.Text.of_string s)
  && with_file s (fun path ->
      agree ~what:"Ugraph.of_file" show_graph same_graph s
        (fun () -> Ugraph.of_file path) (fun () -> R.Text.of_file path))

(* [msg] is the scanner refusing an all-digit id past [max_int]: the
   declared difference, whatever the reference made of that input. *)
let wide_id_refusal msg =
  match
    Scanf.sscanf msg "Bingraph.Snap: line %_d: unreadable vertex id %S%!" Fun.id
  with
  | tok ->
    String.length tok > 18
    && String.for_all (function '0' .. '9' -> true | _ -> false) tok
    && int_of_string_opt tok = None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false

let snap_agrees ?default_prob s =
  let check what ours theirs =
    match outcome ours with
    | Error m when wide_id_refusal m -> true
    | _ -> agree ~what show_packed same_packed s ours theirs
  in
  check "Bingraph.Snap.of_string"
    (fun () -> B.Snap.of_string ?default_prob s)
    (fun () -> R.Snap.of_string ?default_prob s)
  && with_file s (fun path ->
      check "Bingraph.Snap.of_file"
        (fun () -> B.Snap.of_file ?default_prob path)
        (fun () -> R.Snap.of_file ?default_prob path))

let arb gen = QCheck.make ~print:show_input gen

let small_text st = mutate st (canonical_text st ~n:(Random.State.int st 40) ~m:(Random.State.int st 60))
let small_snap st = mutate st (snap_text st ~wide:true ~lines:(Random.State.int st 30))

(* About four scan buffers of edges with one over-long line. *)
let large_text st =
  let s = canonical_text st ~n:(1 + Random.State.int st 999) ~m:9_000 in
  mutate st (insert_line st s (long_line st ~snap:false))

let large_snap st =
  let s = snap_text st ~wide:false ~lines:12_000 in
  mutate st (insert_line st s (long_line st ~snap:true))

let prop_text_small =
  QCheck.Test.make ~name:"text: scanner = reference, mutated small files" ~count:600
    (arb small_text) text_agrees

let prop_snap_small =
  QCheck.Test.make ~name:"snap: scanner = reference, mutated small files" ~count:600
    (arb small_snap) (fun s -> snap_agrees s && snap_agrees ~default_prob:0.75 s)

let prop_text_large =
  QCheck.Test.make ~name:"text: scanner = reference, several buffers long" ~count:25
    (arb large_text) text_agrees

let prop_snap_large =
  QCheck.Test.make ~name:"snap: scanner = reference, several buffers long" ~count:25
    (arb large_snap) snap_agrees

(* Every byte of a line in turn at the first buffer boundary: a comment
   of growing length shifts the same edges across it. *)
let t_every_boundary_offset () =
  let st = Random.State.make [| 29 |] in
  let text = canonical_text st ~n:500 ~m:4_000 in
  let header, rest =
    let i = String.index text '\n' in
    (String.sub text 0 (i + 1), String.sub text (i + 1) (String.length text - i - 1))
  in
  let snap = snap_text st ~wide:false ~lines:5_000 in
  for shift = 0 to 48 do
    let pad = "# " ^ String.make shift 'x' ^ "\n" in
    ignore (text_agrees (header ^ pad ^ rest));
    ignore (snap_agrees (pad ^ snap))
  done

(* [test_bingraph.ml] pins the scanner's refusal; here, that the
   reference wraps the id and that the fuzzer excuses exactly that. *)
let t_declared_difference () =
  let s = "1 2 0.5\n2 3 0.5\n9223372036854775809 3 0.5\n" in
  Alcotest.(check int) "the reference wraps the id" 3
    (B.n_vertices (R.Snap.of_string s));
  (match B.Snap.of_string s with
   | _ -> Alcotest.fail "the scanner accepted an id past max_int"
   | exception Invalid_argument m ->
     Alcotest.(check bool) "the fuzzer declares the refusal" true
       (wide_id_refusal m));
  Alcotest.(check bool) "but no other message" false
    (wide_id_refusal
       "Bingraph.Snap: line 3: unreadable vertex id \"4611686018427387903\"")

let suite =
  ( "edgelist",
    Alcotest.test_case "every offset at a buffer boundary" `Quick
      t_every_boundary_offset
    :: Alcotest.test_case "the declared SNAP difference" `Quick
         t_declared_difference
    :: Testutil.qtests
         [ prop_text_small; prop_snap_small; prop_text_large; prop_snap_large ] )
