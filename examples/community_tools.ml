(* Reliability search (Khan et al.), one of the uncertain-graph
   analyses the paper lists in Section 2, on the Zachary karate club:
   which members does the instructor reach reliably?

     dune exec examples/community_tools.exe *)

let () =
  let g = Workload.Karate.graph ~seed:5 () in
  Printf.printf "Karate club as an uncertain graph: %s\n\n"
    (Format.asprintf "%a" Ugraph.pp_stats g);

  (* Who is reliably reachable from the instructor (vertex 33, the
     famous hub)? *)
  let sources = [ 33 ] in
  let eta = 0.9 in
  let hits = Reach.search ~seed:1 g ~sources ~eta ~samples:4_000 in
  Printf.printf "Reliability search from the instructor (eta = %.1f): %d vertices\n"
    eta (List.length hits);
  List.iteri
    (fun i r ->
      if i < 5 then
        Printf.printf "  vertex %2d reachable with probability %.3f\n"
          r.Reach.vertex r.Reach.reliability)
    hits;
  if List.length hits > 5 then
    Printf.printf "  ... and %d more\n" (List.length hits - 5)
