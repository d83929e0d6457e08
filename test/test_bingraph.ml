(* Round-trip and parser tests for the binary graph container
   (lib/bingraph). The container's contract is bit-exactness: text ->
   binary -> text reproduces the serialized bytes, the header digest
   equals the engine's cache key, and sampling straight from the packed
   arrays is bit-identical to the Ugraph path. The SNAP parser tests pin
   the streaming loader's edge cases (comments, tabs, CR endings,
   missing probability column, id compaction) and its error messages. *)

open Testutil
module B = Bingraph

let arb_graph_ts = Test_bddbase.arb_graph_ts

let text g =
  let b = Buffer.create 256 in
  Ugraph.to_buffer b g;
  Buffer.contents b

let invalid_msg f =
  match f () with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.fail "expected Invalid_argument"

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let check_contains what ~sub msg =
  if not (contains ~sub msg) then
    Alcotest.failf "%s: message %S does not contain %S" what msg sub

(* ---- byte codec round trips ---- *)

let prop_roundtrip_bit_identical =
  QCheck.Test.make ~name:"bingraph: text -> binary -> text bit-identical"
    ~count:300
    (arb_graph_ts ~max_n:12 ~max_m:20 ~max_k:4)
    (fun (n, es, _ts) ->
      let g = graph ~n es in
      let bg = B.of_graph g in
      let bg' = B.of_bytes (B.to_bytes bg) in
      let g' = B.to_graph bg' in
      text g = text g'
      && B.digest bg = B.digest bg'
      && B.digest bg = B.Digest.of_graph g
      && B.digest bg = Engine.digest g)

let prop_csr_direct_estimates =
  QCheck.Test.make
    ~name:"bingraph: monte_carlo on a packed-array Csr = graph path"
    ~count:50
    (arb_graph_ts ~max_n:8 ~max_m:12 ~max_k:4)
    (fun (n, es, ts) ->
      let g = graph ~n es in
      let bg = B.of_graph g in
      let eu, ev, ep = B.to_arrays bg in
      let csr = Kernel.Csr.of_arrays ~n:(B.n_vertices bg) ~eu ~ev ~ep in
      List.for_all
        (fun jobs ->
          Mcsampling.monte_carlo ~seed:7 ~jobs g ~terminals:ts ~samples:300
          = Mcsampling.monte_carlo ~seed:7 ~jobs ~csr g ~terminals:ts
              ~samples:300)
        [ 1; 2; 8 ]
      && Mcsampling.monte_carlo ~seed:7 ~jobs:2 ~kernel:Mcsampling.Bitsliced g
           ~terminals:ts ~samples:300
         = Mcsampling.monte_carlo ~seed:7 ~jobs:2
             ~kernel:Mcsampling.Bitsliced ~csr g ~terminals:ts ~samples:300)

(* ---- one representation ---- *)

(* Graphs with self-loops, parallel edges, isolated vertices and no
   edges at all: up to 8 vertices and 14 edges, probabilities including
   both degenerate ends. *)
let arb_multigraph =
  let open QCheck.Gen in
  let gen =
    int_range 1 8 >>= fun n ->
    int_range 0 14 >>= fun m ->
    let prob =
      frequency [ (1, return 0.); (1, return 1.); (4, float_range 0. 1.) ]
    in
    list_repeat m (triple (int_bound (n - 1)) (int_bound (n - 1)) prob)
    >|= fun es -> (n, es)
  in
  QCheck.make gen
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map (fun (u, v, p) -> Printf.sprintf "(%d,%d,%h)" u v p) es)))

let incidences g v =
  let acc = ref [] in
  Ugraph.iter_incident g v (fun ~eid ~other -> acc := (eid, other) :: !acc);
  List.rev !acc

let bits a = Array.map Int64.bits_of_float a

(* Every reader of [g] and [g'] agrees: the fields, the record readers,
   the adjacency readers in order, and the derived statistics. *)
let same_graph (g : Ugraph.t) (g' : Ugraph.t) =
  g.n = g'.n && g.m = g'.m && g.eu = g'.eu && g.ev = g'.ev
  && bits g.ep = bits g'.ep
  && g.off = g'.off && g.adj_eid = g'.adj_eid && g.adj_other = g'.adj_other
  && Ugraph.edges g = Ugraph.edges g'
  && List.for_all
       (fun v ->
         Ugraph.degree g v = Ugraph.degree g' v
         && incidences g v = incidences g' v
         && Ugraph.incident_eids g v = Ugraph.incident_eids g' v
         && Ugraph.neighbours g v = Ugraph.neighbours g' v)
       (List.init g.n Fun.id)
  && Ugraph.has_self_loop g = Ugraph.has_self_loop g'
  && Ugraph.has_parallel_edge g = Ugraph.has_parallel_edge g'
  && Int64.bits_of_float (Ugraph.avg_prob g) = Int64.bits_of_float (Ugraph.avg_prob g')

let prop_one_representation =
  QCheck.Test.make
    ~name:"ugraph: create = text round trip = .nrb round trip; Csr.of_graph views it"
    ~count:300 arb_multigraph
    (fun (n, es) ->
      let g = graph ~n es in
      let via_text = Ugraph.of_string (text g) in
      let via_nrb = B.to_graph (B.of_bytes (B.to_bytes (B.of_graph g))) in
      let c = Kernel.Csr.of_graph g in
      (* the incidence order a loader builds: increasing edge id per
         vertex, a self-loop once *)
      let expected v =
        List.filter_map
          (fun (i, (a, b, _)) ->
            if a = v then Some (i, b) else if b = v then Some (i, a) else None)
          (List.mapi (fun i e -> (i, e)) es)
      in
      same_graph g via_text && same_graph g via_nrb
      && List.for_all (fun v -> incidences g v = expected v) (List.init n Fun.id)
      && c = Kernel.Csr.of_arrays ~n ~eu:g.eu ~ev:g.ev ~ep:g.ep
      && c.Kernel.Csr.eu == g.eu && c.Kernel.Csr.ev == g.ev && c.Kernel.Csr.ep == g.ep
      && c.Kernel.Csr.off == g.off && c.Kernel.Csr.adj_pos == g.adj_eid
      && c.Kernel.Csr.adj_other == g.adj_other)

let with_tmp f =
  let tmp = Filename.temp_file "test_bingraph_" ".nrb" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
  @@ fun () -> f tmp

let t_mmap_load () =
  let g = fig1 () in
  let bg = B.of_graph g in
  with_tmp @@ fun tmp ->
  B.to_file tmp bg;
  Alcotest.(check bool) "is_binary_file" true (B.is_binary_file tmp);
  let m1 = B.load tmp and m2 = B.of_file tmp in
  B.validate m1;
  Alcotest.(check int) "digest mmap" (B.digest bg) (B.digest m1);
  Alcotest.(check int) "digest of_file" (B.digest bg) (B.digest m2);
  Alcotest.(check int) "n" (B.n_vertices bg) (B.n_vertices m1);
  Alcotest.(check int) "m" (B.n_edges bg) (B.n_edges m1);
  for i = 0 to B.n_edges bg - 1 do
    Alcotest.(check bool) "edge" true (B.edge bg i = B.edge m1 i)
  done;
  (* the header digest is trustworthy: it equals a recomputation over
     the mmap-loaded graph (the property the engine relies on when it
     skips its O(m) re-hash) *)
  Alcotest.(check int) "digest recompute" (Engine.digest (B.to_graph m1))
    (B.digest m1)

let t_empty_graph () =
  let g = Ugraph.create ~n:3 [] in
  let bg = B.of_graph g in
  with_tmp @@ fun tmp ->
  B.to_file tmp bg;
  let m = B.load tmp in
  B.validate m;
  Alcotest.(check int) "n" 3 (B.n_vertices m);
  Alcotest.(check int) "m" 0 (B.n_edges m);
  Alcotest.(check bool) "text" true (text g = text (B.to_graph m))

let t_corrupt_bytes () =
  let b = B.to_bytes (B.of_graph (fig1 ())) in
  check_contains "truncated" ~sub:"truncated"
    (invalid_msg (fun () -> B.of_bytes (Bytes.sub b 0 (Bytes.length b - 8))));
  let bad_magic = Bytes.copy b in
  Bytes.set bad_magic 0 'X';
  check_contains "magic" ~sub:"bad magic"
    (invalid_msg (fun () -> B.of_bytes bad_magic));
  let bad_tag = Bytes.copy b in
  Bytes.set bad_tag 32 '\xFF';
  check_contains "order tag" ~sub:"byte-order tag"
    (invalid_msg (fun () -> B.of_bytes bad_tag));
  check_contains "short header" ~sub:"truncated header"
    (invalid_msg (fun () -> B.of_bytes (Bytes.sub b 0 10)))

let t_validate_rejects () =
  (* hand-corrupt a probability in the packed bytes: the header still
     parses, [validate] must catch the payload *)
  let b = B.to_bytes (B.of_graph (fig1 ())) in
  let off_ep = 40 + (8 * 6) in
  Bytes.set_int64_le b off_ep (Int64.bits_of_float 1.5);
  let bg = B.of_bytes b in
  check_contains "probability" ~sub:"outside [0,1]"
    (invalid_msg (fun () -> B.validate bg));
  check_contains "to_graph names the edge" ~sub:"edge 0 probability 1.5"
    (invalid_msg (fun () -> B.to_graph bg))

(* ---- SNAP / KONECT parser ---- *)

let t_snap_basic () =
  let input = "# SNAP comment\n% KONECT header\n10 20 0.25\n20\t30\r\n10 30\n" in
  let bg = B.Snap.of_string ~default_prob:0.75 input in
  Alcotest.(check int) "n" 3 (B.n_vertices bg);
  Alcotest.(check int) "m" 3 (B.n_edges bg);
  (* ids compacted in first-appearance order: 10 -> 0, 20 -> 1, 30 -> 2 *)
  Alcotest.(check bool) "edge0" true
    (B.edge bg 0 = { Ugraph.u = 0; v = 1; p = 0.25 });
  Alcotest.(check bool) "edge1 (tab+CR, default prob)" true
    (B.edge bg 1 = { Ugraph.u = 1; v = 2; p = 0.75 });
  Alcotest.(check bool) "edge2 (default prob)" true
    (B.edge bg 2 = { Ugraph.u = 0; v = 2; p = 0.75 })

let t_snap_extra_columns () =
  (* KONECT rows carry weight + timestamp columns after the probability;
     they are ignored *)
  let bg = B.Snap.of_string "1 2 0.5 1234567890\n2 3 0.25 42 extra\n" in
  Alcotest.(check int) "m" 2 (B.n_edges bg);
  Alcotest.(check bool) "edge1" true
    (B.edge bg 1 = { Ugraph.u = 1; v = 2; p = 0.25 })

let t_snap_missing_final_newline () =
  let bg = B.Snap.of_string "1 2 0.5\n3 4" in
  Alcotest.(check int) "m" 2 (B.n_edges bg);
  Alcotest.(check bool) "edge1" true
    (B.edge bg 1 = { Ugraph.u = 2; v = 3; p = 0.5 })

let t_snap_of_file_matches_of_string () =
  let input = "# c\n5 6 0.125\n6 7\n" in
  with_tmp @@ fun tmp ->
  let oc = open_out_bin tmp in
  output_string oc input;
  close_out oc;
  Alcotest.(check int) "digest"
    (B.digest (B.Snap.of_string input))
    (B.digest (B.Snap.of_file tmp))

let t_snap_errors () =
  let msg input = invalid_msg (fun () -> B.Snap.of_string input) in
  check_contains "one field" ~sub:"line 1: expected `u v [p]`, got one field"
    (msg "5\n");
  check_contains "bad id" ~sub:"line 2: unreadable vertex id \"a\""
    (msg "# c\na b\n");
  check_contains "negative id" ~sub:"unreadable vertex id \"-1\"" (msg "-1 2\n");
  check_contains "bad prob" ~sub:"line 1: unreadable probability \"zz\""
    (msg "1 2 zz\n");
  check_contains "prob range" ~sub:"probability 1.5 outside [0,1]"
    (msg "1 2 1.5\n");
  check_contains "no edges" ~sub:"no edges in input" (msg "# only comments\n");
  (* 2^63 + 1 used to wrap onto file id 1 *)
  Alcotest.(check string) "id past max_int"
    "Bingraph.Snap: line 3: unreadable vertex id \"9223372036854775809\""
    (msg "1 2 0.5\n2 3 0.5\n9223372036854775809 3 0.5\n");
  Alcotest.(check int) "max_int and leading zeros are ids" 3
    (B.n_vertices
       (B.Snap.of_string "1 2\n4611686018427387903 0000000000000000000001\n"));
  check_contains "bad default" ~sub:"default probability 2 outside [0,1]"
    (invalid_msg (fun () -> B.Snap.of_string ~default_prob:2.0 "1 2\n"))

let suite =
  ( "bingraph",
    [
      Alcotest.test_case "mmap load = in-memory load" `Quick t_mmap_load;
      Alcotest.test_case "empty graph round trip" `Quick t_empty_graph;
      Alcotest.test_case "corrupt bytes rejected" `Quick t_corrupt_bytes;
      Alcotest.test_case "validate rejects bad payload" `Quick
        t_validate_rejects;
      Alcotest.test_case "snap: comments/tabs/CR/default prob" `Quick
        t_snap_basic;
      Alcotest.test_case "snap: extra KONECT columns ignored" `Quick
        t_snap_extra_columns;
      Alcotest.test_case "snap: missing final newline" `Quick
        t_snap_missing_final_newline;
      Alcotest.test_case "snap: of_file = of_string" `Quick
        t_snap_of_file_matches_of_string;
      Alcotest.test_case "snap: bad lines raise with line numbers" `Quick
        t_snap_errors;
    ]
    @ qtests
        [ prop_roundtrip_bit_identical; prop_csr_direct_estimates;
          prop_one_representation ] )
