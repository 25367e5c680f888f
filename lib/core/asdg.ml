type t = {
  stmts : Ir.Nstmt.t array;
  edge_tbl : (int * int, Dep.label list) Hashtbl.t;
  edge_list : (int * int) list;  (* sorted, nonempty labels only *)
  vars : string list;  (* first-occurrence order *)
  refs : (string, int list) Hashtbl.t;  (* array -> referencing statements, ascending *)
  deps : (string, ((int * int) * Dep.label) list) Hashtbl.t;
      (* array -> its dependences, in edge then label order *)
}

(* Append to a per-array list kept reversed while building. *)
let push tbl x v =
  Hashtbl.replace tbl x
    (v :: Option.value ~default:[] (Hashtbl.find_opt tbl x))

let build stmt_list =
  let stmts = Array.of_list stmt_list in
  let n = Array.length stmts in
  let edge_tbl = Hashtbl.create 64 in
  let edge_list = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match Dep.between stmts.(i) stmts.(j) with
      | [] -> ()
      | labels ->
          Hashtbl.replace edge_tbl (i, j) labels;
          edge_list := (i, j) :: !edge_list
    done
  done;
  if Obs.enabled () then Obs.count "dep.edges" (List.length !edge_list);
  let edge_list = List.sort compare !edge_list in
  (* the per-array tables, built once: the planners ask these
     questions once per candidate array for every state they price *)
  let vars = ref [] in
  let refs = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      List.iter
        (fun x ->
          if not (Hashtbl.mem refs x) then vars := x :: !vars;
          push refs x i)
        (Ir.Nstmt.arrays s))
    stmts;
  let deps = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun (l : Dep.label) -> push deps l.var (e, l))
        (Hashtbl.find edge_tbl e))
    edge_list;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) refs;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) deps;
  { stmts; edge_tbl; edge_list; vars = List.rev !vars; refs; deps }

let n t = Array.length t.stmts
let stmt t i = t.stmts.(i)
let stmts t = t.stmts
let edges t = t.edge_list

let labels t i j =
  match Hashtbl.find_opt t.edge_tbl (i, j) with Some l -> l | None -> []

let vars t = t.vars

let deps_on t x =
  match Hashtbl.find_opt t.deps x with Some l -> l | None -> []

let stmts_referencing t x =
  match Hashtbl.find_opt t.refs x with Some l -> l | None -> []

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i s -> Format.fprintf ppf "s%d: %a@," i Ir.Nstmt.pp s)
    t.stmts;
  List.iter
    (fun (i, j) ->
      Format.fprintf ppf "s%d -> s%d  {%a}@," i j
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Dep.pp)
        (labels t i j))
    t.edge_list;
  Format.fprintf ppf "@]"
