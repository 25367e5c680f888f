type t = {
  asdg : Asdg.t;
  dsu : Support.Dsu.t;
}

let trivial g = { asdg = g; dsu = Support.Dsu.create (Asdg.n g) }
let asdg t = t.asdg
let cluster_of t i = Support.Dsu.find t.dsu i
let clusters t = Support.Dsu.groups t.dsu
let find_members groups rep = List.find (fun c -> List.hd c = rep) groups
let members t rep = find_members (clusters t) rep
let n_clusters t = Support.Dsu.n_sets t.dsu
let same_cluster t i j = Support.Dsu.same t.dsu i j

let inter_cluster_edges t =
  Asdg.edges t.asdg
  |> List.filter_map (fun (i, j) ->
         let ri = cluster_of t i and rj = cluster_of t j in
         if ri = rj then None else Some (ri, rj))
  |> List.sort_uniq compare

let intra_udvs t rep =
  Asdg.edges t.asdg
  |> List.concat_map (fun (i, j) ->
         if cluster_of t i = rep && cluster_of t j = rep then
           List.map (fun (l : Dep.label) -> l.udv) (Asdg.labels t.asdg i j)
         else [])

let loop_structure t rep =
  match members t rep with
  | [] -> None
  | s :: _ ->
      let rank = Ir.Region.rank (Asdg.stmt t.asdg s).Ir.Nstmt.region in
      Loopstruct.find ~rank (intra_udvs t rep)

(* ---- cluster-level digraph helpers -------------------------------- *)

(* Map representatives to dense ids for Toposort. *)
let cluster_graph t =
  let n = Asdg.n t.asdg in
  let id = Array.make n (-1) in
  let reps = Array.of_list (List.map List.hd (clusters t)) in
  Array.iteri (fun k r -> id.(r) <- k) reps;
  let edges =
    List.map (fun (a, b) -> (id.(a), id.(b))) (inter_cluster_edges t)
  in
  (reps, id, edges)

(* Bitsets over dense ids, [word] bits to an int: bit [b] of the set
   whose first word is [bits.(off)]. *)
let word = Sys.int_size
let bit_mem bits off b = bits.(off + (b / word)) land (1 lsl (b mod word)) <> 0

let bit_add bits off b =
  let w = off + (b / word) in
  bits.(w) <- bits.(w) lor (1 lsl (b mod word))

(* Staged: [grow t] tabulates the transitive reach of the cluster graph
   once, as one bitset row per cluster, and its transpose, and answers
   every cluster set then asked of it by word operations.  Clusters get
   dense ids in representative order; bit [b] of row [a] of [reach]
   says a dependence path of at least one edge leads from cluster [a]
   to cluster [b], and bit [a] of row [b] of [back] says the same. *)
let grow t =
  let n = Asdg.n t.asdg in
  let id = Array.make n (-1) in
  let reps = Array.of_list (List.map List.hd (clusters t)) in
  Array.iteri (fun k r -> id.(r) <- k) reps;
  let k = Array.length reps in
  let words = (k + word - 1) / word in
  let reach = Array.make (k * words) 0 in
  (* the cluster graph's edges, straight from the statement edges:
     setting a bit twice is harmless, so nothing is sorted *)
  List.iter
    (fun (i, j) ->
      let a = id.(cluster_of t i) and b = id.(cluster_of t j) in
      if a <> b then bit_add reach (a * words) b)
    (Asdg.edges t.asdg);
  (* Warshall: after step [m], row [a] holds every cluster reached by a
     path whose inner clusters all lie among 0..m *)
  for m = 0 to k - 1 do
    for a = 0 to k - 1 do
      if bit_mem reach (a * words) m then
        for w = 0 to words - 1 do
          reach.((a * words) + w) <-
            reach.((a * words) + w) lor reach.((m * words) + w)
        done
    done
  done;
  let back = Array.make (k * words) 0 in
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if bit_mem reach (a * words) b then bit_add back (b * words) a
    done
  done;
  fun c ->
    (* the clusters [c] reaches and those that reach back into it, then
       both and outside [c] *)
    let out = Array.make words 0 and into = Array.make words 0 in
    List.iter
      (fun r ->
        let a = id.(r) * words in
        for w = 0 to words - 1 do
          out.(w) <- out.(w) lor reach.(a + w);
          into.(w) <- into.(w) lor back.(a + w)
        done)
      c;
    for w = 0 to words - 1 do
      out.(w) <- out.(w) land into.(w)
    done;
    List.iter
      (fun r ->
        let a = id.(r) in
        let w = a / word in
        out.(w) <- out.(w) land lnot (1 lsl (a mod word)))
      c;
    let acc = ref [] in
    for w = words - 1 downto 0 do
      if out.(w) <> 0 then
        for b = word - 1 downto 0 do
          if out.(w) land (1 lsl b) <> 0 then
            acc := reps.((w * word) + b) :: !acc
        done
    done;
    !acc

(* ---- hypothetical merge ------------------------------------------- *)

let merge t c =
  let dsu = Support.Dsu.copy t.dsu in
  (match c with
  | [] -> ()
  | first :: rest -> List.iter (fun r -> Support.Dsu.union dsu first r) rest);
  { t with dsu }

(* All statements of the given cluster set, ascending: one pass over
   the statements, membership by representative. *)
let stmts_of t c =
  let n = Asdg.n t.asdg in
  let inside = Array.make n false in
  List.iter (fun r -> inside.(r) <- true) c;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if inside.(cluster_of t i) then out := i :: !out
  done;
  !out

(* Labels of the dependences between statements of the set, in edge
   order: one pass over the edges, membership by array. *)
let labels_within t stmt_set =
  let g = t.asdg in
  let mem = Array.make (Asdg.n g) false in
  List.iter (fun i -> mem.(i) <- true) stmt_set;
  Asdg.edges g
  |> List.concat_map (fun (i, j) ->
         if mem.(i) && mem.(j) then Asdg.labels g i j else [])

let acyclic t =
  let _, _, edges = cluster_graph t in
  not (Support.Toposort.has_cycle ~n:(n_clusters t) ~edges)

type veto =
  | Region_mismatch
  | Nonnull_flow
  | No_loop_structure
  | Cycle

(* Conditions (i), (ii) and (iv) of Definition 5 on one statement set,
   reporting the first violated condition.  [relax_flow] drops
   condition (ii) — the parallelism condition — to model sequential
   (scalar-compiler-style) fusion; legality is still guaranteed by
   condition (iv), since FIND-LOOP-STRUCTURE preserves flow dependences
   like any others. *)
let check_stmt_set ?(relax_flow = false) t ss =
  let g = t.asdg in
  let regions = List.map (fun i -> (Asdg.stmt g i).Ir.Nstmt.region) ss in
  let same_region =
    match regions with
    | [] -> true
    | r0 :: rest -> List.for_all (Ir.Region.equal r0) rest
  in
  if not same_region then Error Region_mismatch
  else
    let within = labels_within t ss in
    if
      (not relax_flow)
      && List.exists
           (fun (l : Dep.label) ->
             l.kind = Dep.Flow && not (Support.Vec.is_null l.udv))
           within
    then Error Nonnull_flow
    else
      match ss with
      | [] -> Ok ()
      | s :: _ ->
          let rank = Ir.Region.rank (Asdg.stmt g s).Ir.Nstmt.region in
          let udvs = List.map (fun (l : Dep.label) -> l.udv) within in
          if Loopstruct.find ~rank udvs <> None then Ok ()
          else Error No_loop_structure

let valid_stmt_set ?relax_flow t ss = check_stmt_set ?relax_flow t ss = Ok ()

let check_merge ?relax_flow t c =
  match c with
  | [] | [ _ ] -> Ok ()
  | _ -> (
      match check_stmt_set ?relax_flow t (stmts_of t c) with
      | Error _ as e -> e
      | Ok () -> if acyclic (merge t c) then Ok () else Error Cycle)

let can_merge ?relax_flow t c = check_merge ?relax_flow t c = Ok ()

let contractible t x ~within =
  let cluster_set = List.sort_uniq compare within in
  Asdg.deps_on t.asdg x
  |> List.for_all (fun ((i, j), (l : Dep.label)) ->
         List.mem (cluster_of t i) cluster_set
         && List.mem (cluster_of t j) cluster_set
         && Support.Vec.is_null l.udv)

let is_valid ?relax_flow t =
  List.for_all (fun c -> valid_stmt_set ?relax_flow t c) (clusters t)
  && acyclic t

let first_ref_is_write t x =
  match Asdg.stmts_referencing t.asdg x with
  | [] -> false
  | i :: _ -> (Asdg.stmt t.asdg i).Ir.Nstmt.lhs = x

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf ppf "P%d = {%a}%s@," (List.hd c)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf i -> Format.fprintf ppf "s%d" i))
        c
        (match loop_structure t (List.hd c) with
        | Some p -> Format.asprintf "  p=%a" Loopstruct.pp p
        | None -> "  p=NOSOLUTION"))
    (clusters t);
  Format.fprintf ppf "@]"
