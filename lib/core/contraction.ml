type shape =
  | Scalar
  | Keep_dims of bool array

(* Block-local contraction test for one array: all referencing
   statements in a single cluster, no upward-exposed read, and (for
   full contraction) all UDVs null. *)
let single_cluster p x =
  let refs = Asdg.stmts_referencing (Partition.asdg p) x in
  match List.map (Partition.cluster_of p) refs |> List.sort_uniq compare with
  | [ rep ] -> Some rep
  | _ -> None

let shape_name = function
  | Scalar -> "scalar"
  | Keep_dims keep ->
      let kept = ref [] in
      Array.iteri (fun i k -> if k then kept := (i + 1) :: !kept) keep;
      "keep-dims:"
      ^ String.concat "," (List.rev_map string_of_int !kept)

let observe_candidates candidates =
  if Obs.enabled () then
    List.iter
      (fun x -> Obs.event (Obs.Contraction_candidate { array = x }))
      candidates

let observe_performed x shape =
  if Obs.enabled () then
    Obs.event (Obs.Contraction_perform { array = x; shape = shape_name shape })

let scalars p ~candidates =
  List.filter
    (fun x ->
      Partition.first_ref_is_write p x
      &&
      match single_cluster p x with
      | Some rep -> Partition.contractible p x ~within:[ rep ]
      | None -> false)
    candidates

let decide p ~candidates =
  observe_candidates candidates;
  let contracted = scalars p ~candidates in
  List.iter (fun x -> observe_performed x Scalar) contracted;
  contracted

let scalar_if_confined g x =
  (match Asdg.stmts_referencing g x with
  | i :: _ -> (Asdg.stmt g i).Ir.Nstmt.lhs = x
  | [] -> false)
  && List.for_all
       (fun (_, (l : Dep.label)) -> Support.Vec.is_null l.udv)
       (Asdg.deps_on g x)

let ref_offsets p x =
  let g = Partition.asdg p in
  Asdg.stmts_referencing g x
  |> List.concat_map (fun i ->
         let s = Asdg.stmt g i in
         Ir.Nstmt.reads_of s x @ Ir.Nstmt.writes_of s x)

let decide_partial p ~candidates =
  observe_candidates candidates;
  List.filter_map
    (fun x ->
      if not (Partition.first_ref_is_write p x) then None
      else
        match single_cluster p x with
        | None -> None
        | Some rep -> (
            match (ref_offsets p x, Partition.loop_structure p rep) with
            | [], _ | _, None -> None
            | (d0 :: _) as offsets, Some ls ->
                let rank = Support.Vec.rank d0 in
                (* a dimension must be kept when some reference carries
                   a nonzero offset there... *)
                let keep =
                  Array.init rank (fun i ->
                      List.exists (fun d -> d.(i) <> 0) offsets)
                in
                (* ...and when its loop is nested inside a loop that
                   carries a dependence due to [x]: between the
                   cross-iteration def and use, the inner loop revisits
                   the same buffer cell with different indices. *)
                List.iter
                  (fun (_, (l : Dep.label)) ->
                    if not (Support.Vec.is_null l.udv) then begin
                      let d = Loopstruct.constrain ls l.udv in
                      (* outermost carrying level (d is lex-nonnegative
                         for any dependence the cluster preserves) *)
                      let rec carrier lvl =
                        if lvl > rank then rank
                        else if d.(lvl - 1) <> 0 then lvl
                        else carrier (lvl + 1)
                      in
                      let lvl = carrier 1 in
                      for inner = lvl + 1 to rank do
                        keep.(abs (Support.Vec.get ls inner) - 1) <- true
                      done
                    end)
                  (Asdg.deps_on (Partition.asdg p) x);
                if Array.for_all not keep then begin
                  observe_performed x Scalar;
                  Some (x, Scalar)
                end
                else if Array.for_all (fun k -> k) keep then
                  (* nothing would be saved: not a contraction *)
                  None
                else begin
                  observe_performed x (Keep_dims keep);
                  Some (x, Keep_dims keep)
                end))
    candidates

let shape_volume bounds = function
  | Scalar -> 1
  | Keep_dims keep ->
      let v = ref 1 in
      Array.iteri
        (fun i k -> if k then v := !v * Ir.Region.extent bounds (i + 1))
        keep;
      !v
