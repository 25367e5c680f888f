let weight g x =
  Array.fold_left
    (fun acc s ->
      acc + (Ir.Nstmt.ref_count s x * Ir.Region.volume s.Ir.Nstmt.region))
    0 (Asdg.stmts g)

let by_decreasing_weight g names =
  let weighted = List.map (fun x -> (x, weight g x)) names in
  List.stable_sort (fun (_, a) (_, b) -> compare b a) weighted
  |> List.map fst
