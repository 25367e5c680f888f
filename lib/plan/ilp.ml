type cfg = {
  max_clusters : int;
  max_pivots : int;
  jobs : int;
}

let default = { max_clusters = 4000; max_pivots = 200_000; jobs = 1 }
let max_nodes = 400

type stats = {
  clusters : int;
  complete : bool;
  nodes : int;
  cuts : int;
  pivots : int;
  proved : bool;
  objective_exact : bool;
  lower_bound_ns : float option;
  greedy_ns : float;
  best_ns : float;
  improved : bool;
}

(* ------------------------------------------------------------------ *)
(* Column enumeration                                                  *)
(* ------------------------------------------------------------------ *)

(* A column is a statement set accepted by check_merge on the trivial
   partition: Definition 5 conditions (i) region equality, (ii) null
   intra flow UDVs, (iv) loop structure — all superset-monotone, so a
   violation prunes the whole extension subtree — plus convexity (the
   Cycle veto: no dependence path leaves the set and returns).

   The DFS adds statements in ascending index order and ASDG edges
   always point from lower to higher indices, so every prefix it
   extends is itself a column, and it checks only what an extension
   changes:
   - (i) and (ii) are pairwise: the block's Pairs table holds them for
     every pair;
   - (iv) is FIND-LOOP-STRUCTURE over the UDVs of the dependences
     inside the set, accumulated along the prefix (its verdict depends
     only on which UDVs there are, so an extension that adds none keeps
     the prefix's);
   - convexity: a path that leaves the convex prefix [S] and re-enters
     [S ∪ {next}] ascends, so it can only re-enter at [next]: adding
     [next] breaks convexity iff some statement outside [S], reachable
     from [S], reaches [next] — read off the transitive-reach table and
     the prefix's reach set.
   A failed extension's every superset along the DFS fails too (the
   cycle witness a → j → next keeps its nodes at indices at most
   [next]), so pruning is exact: the DFS emits precisely the valid
   clusters, each once. *)
let enumerate cfg pairs g =
  let n = Core.Asdg.n g in
  let region i = (Core.Asdg.stmt g i).Ir.Nstmt.region in
  (* [reach.(a).(b)]: a dependence path leads from a to b *)
  let reach = Array.make_matrix n n false in
  for a = n - 1 downto 0 do
    for b = a + 1 to n - 1 do
      if Core.Asdg.labels g a b <> [] then begin
        reach.(a).(b) <- true;
        for c = b + 1 to n - 1 do
          if reach.(b).(c) then reach.(a).(c) <- true
        done
      end
    done
  done;
  let inside = Array.make n false in
  let cols = ref [] in
  let count = ref 0 in
  let explored = ref 0 in
  let complete = ref true in
  let explore_cap = 32 * cfg.max_clusters in
  let exception Enough in
  let emit c =
    if !count >= cfg.max_clusters then begin
      complete := false;
      raise Enough
    end;
    incr count;
    cols := c :: !cols
  in
  (* [rev_members]: the prefix, descending; [first]: its minimum;
     [within]: the UDVs inside it; [reached]: what it reaches *)
  let rec extend rev_members first within reached =
    let last = List.hd rev_members in
    for next = last + 1 to n - 1 do
      if List.for_all (fun m -> Pairs.compat pairs m next) rev_members
      then begin
        incr explored;
        if !explored > explore_cap then begin
          complete := false;
          raise Enough
        end;
        let convex =
          let rec ok j =
            j >= next
            || ((inside.(j) || not (reached.(j) && reach.(j).(next)))
               && ok (j + 1))
          in
          ok (first + 1)
        in
        let added =
          List.concat_map (fun m -> Pairs.udvs pairs m next) rev_members
        in
        let within = added @ within in
        if
          convex
          && (added = []
             || Core.Loopstruct.find ~rank:(Ir.Region.rank (region next))
                  within
                <> None)
        then begin
          let members = next :: rev_members in
          emit (List.rev members);
          inside.(next) <- true;
          extend members first within
            (Array.mapi (fun j r -> r || reach.(next).(j)) reached);
          inside.(next) <- false
        end
      end
    done
  in
  (* singletons first: whatever the caps do below, the set-partitioning
     LP stays feasible *)
  (try
     for s = 0 to n - 1 do
       emit [ s ]
     done;
     for s = 0 to n - 1 do
       inside.(s) <- true;
       extend [ s ] s [] reach.(s);
       inside.(s) <- false
     done
   with Enough -> ());
  (Array.of_list (List.rev !cols), !complete)

let columns cfg g = enumerate cfg (Pairs.create g) g

(* ------------------------------------------------------------------ *)
(* Dense two-phase primal simplex                                      *)
(* ------------------------------------------------------------------ *)

(* Minimize c·x over the canonical tableau (a, b, basis).  The z row
   of reduced costs is maintained incrementally.  Entering: Dantzig
   (most positive z_j, lowest index on ties), degrading to Bland's
   rule after a run of degenerate pivots so cycling is impossible;
   leaving: minimum ratio, lowest basis index on ties.  Artificial
   columns ([j >= art_from]) never re-enter.  All deterministic. *)

type lp_outcome = Lp_optimal | Lp_infeasible | Lp_limit

let tol = 1e-9
let feas_tol = 1e-7

let solve_phase a b basis row_active m width ~art_from c ~budget pivots =
  let z = Array.make width 0.0 in
  for j = 0 to width - 1 do
    let s = ref 0.0 in
    for i = 0 to m - 1 do
      if row_active.(i) then s := !s +. (c.(basis.(i)) *. a.(i).(j))
    done;
    z.(j) <- !s -. c.(j)
  done;
  let degenerate = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    if !pivots >= budget then outcome := Some Lp_limit
    else begin
      (* entering column *)
      let enter = ref (-1) in
      if !degenerate > 30 then (
        (* Bland: lowest improving index *)
        let j = ref 0 in
        while !enter < 0 && !j < art_from do
          if z.(!j) > tol then enter := !j;
          incr j
        done)
      else begin
        let bestz = ref tol in
        for j = 0 to art_from - 1 do
          if z.(j) > !bestz then begin
            bestz := z.(j);
            enter := j
          end
        done
      end;
      if !enter < 0 then outcome := Some Lp_optimal
      else begin
        let jc = !enter in
        (* leaving row: min ratio, lowest basis index on ties *)
        let leave = ref (-1) and best = ref infinity in
        for i = 0 to m - 1 do
          if row_active.(i) && a.(i).(jc) > tol then begin
            let r = b.(i) /. a.(i).(jc) in
            if
              r < !best -. 1e-12
              || (r < !best +. 1e-12
                 && (!leave < 0 || basis.(i) < basis.(!leave)))
            then begin
              best := r;
              leave := i
            end
          end
        done;
        if !leave < 0 then
          (* structurally impossible here (columns are bounded by the
             partition rows); treat as a numerical failure *)
          outcome := Some Lp_limit
        else begin
          let ir = !leave in
          incr pivots;
          if b.(ir) < tol then incr degenerate else degenerate := 0;
          let arow = a.(ir) in
          let piv = arow.(jc) in
          for j = 0 to width - 1 do
            arow.(j) <- arow.(j) /. piv
          done;
          b.(ir) <- b.(ir) /. piv;
          for i = 0 to m - 1 do
            if i <> ir && row_active.(i) then begin
              let f = a.(i).(jc) in
              if abs_float f > 1e-12 then begin
                let ai = a.(i) in
                for j = 0 to width - 1 do
                  ai.(j) <- ai.(j) -. (f *. arow.(j))
                done;
                b.(i) <- b.(i) -. (f *. b.(ir))
              end
            end
          done;
          let f = z.(jc) in
          if abs_float f > 1e-12 then
            for j = 0 to width - 1 do
              z.(j) <- z.(j) -. (f *. arow.(j))
            done;
          basis.(ir) <- jc
        end
      end
    end
  done;
  match !outcome with Some o -> o | None -> assert false

(* The starting tableau of min w·y, Σ_{C∋i} y_C = 1 (per uncovered
   stmt), cut rows Σ y ≤ rhs, y ≥ 0, over the active columns.  A
   statement's row gets a 1 in each active column that holds it: each
   active column's statement list is walked once, through the
   statement -> row index. *)
let tableau ~n cols ~act_cols ~eq_rows ~cut_rows =
  let n_act = Array.length act_cols in
  let n_eq = Array.length eq_rows in
  let n_cut = Array.length cut_rows in
  let m = n_eq + n_cut in
  let width = n_act + n_cut + n_eq in
  let art_from = n_act + n_cut in
  let a = Array.make_matrix m width 0.0 in
  let b = Array.make m 0.0 in
  let basis = Array.make m 0 in
  let row = Array.make n (-1) in
  Array.iteri
    (fun r stmt ->
      row.(stmt) <- r;
      a.(r).(art_from + r) <- 1.0;
      b.(r) <- 1.0;
      basis.(r) <- art_from + r)
    eq_rows;
  Array.iteri
    (fun j id ->
      List.iter
        (fun s -> if row.(s) >= 0 then a.(row.(s)).(j) <- 1.0)
        cols.(id))
    act_cols;
  Array.iteri
    (fun k (members, rhs) ->
      let r = n_eq + k in
      List.iter (fun j -> a.(r).(j) <- 1.0) members;
      a.(r).(n_act + k) <- 1.0;
      b.(r) <- float_of_int rhs;
      basis.(r) <- n_act + k)
    cut_rows;
  (a, b, basis)

(* Solve the LP of [tableau].  Returns the optimum and the primal
   values of the active columns. *)
let solve_lp ~w ~n cols ~act_cols ~eq_rows ~cut_rows ~budget pivots =
  let a, b, basis = tableau ~n cols ~act_cols ~eq_rows ~cut_rows in
  let n_act = Array.length act_cols in
  let n_cut = Array.length cut_rows in
  let m = Array.length b in
  let width = n_act + n_cut + Array.length eq_rows in
  let art_from = n_act + n_cut in
  let row_active = Array.make m true in
  (* phase 1: minimize the artificials *)
  let c1 = Array.make width 0.0 in
  for j = art_from to width - 1 do
    c1.(j) <- 1.0
  done;
  match solve_phase a b basis row_active m width ~art_from c1 ~budget pivots with
  | Lp_limit -> (Lp_limit, 0.0, [||])
  | Lp_infeasible -> assert false
  | Lp_optimal ->
      let p1 = ref 0.0 in
      for i = 0 to m - 1 do
        if row_active.(i) && basis.(i) >= art_from then p1 := !p1 +. b.(i)
      done;
      if !p1 > feas_tol then (Lp_infeasible, 0.0, [||])
      else begin
        (* drive artificials out of the basis; a row that cannot be
           freed is redundant and is dropped *)
        for i = 0 to m - 1 do
          if row_active.(i) && basis.(i) >= art_from then begin
            let j = ref 0 and found = ref (-1) in
            while !found < 0 && !j < art_from do
              if abs_float a.(i).(!j) > feas_tol then found := !j;
              incr j
            done;
            match !found with
            | -1 -> row_active.(i) <- false
            | jc ->
                let arow = a.(i) in
                let piv = arow.(jc) in
                for j = 0 to width - 1 do
                  arow.(j) <- arow.(j) /. piv
                done;
                b.(i) <- b.(i) /. piv;
                for i' = 0 to m - 1 do
                  if i' <> i && row_active.(i') then begin
                    let f = a.(i').(jc) in
                    if abs_float f > 1e-12 then begin
                      let ai = a.(i') in
                      for j = 0 to width - 1 do
                        ai.(j) <- ai.(j) -. (f *. arow.(j))
                      done;
                      b.(i') <- b.(i') -. (f *. b.(i))
                    end
                  end
                done;
                basis.(i) <- jc
          end
        done;
        (* phase 2 *)
        let c2 = Array.make width 0.0 in
        Array.iteri (fun j id -> c2.(j) <- w.(id)) act_cols;
        match
          solve_phase a b basis row_active m width ~art_from c2 ~budget pivots
        with
        | Lp_limit -> (Lp_limit, 0.0, [||])
        | Lp_infeasible -> assert false
        | Lp_optimal ->
            let x = Array.make n_act 0.0 in
            let obj = ref 0.0 in
            for i = 0 to m - 1 do
              if row_active.(i) && basis.(i) < n_act then begin
                x.(basis.(i)) <- b.(i);
                obj := !obj +. (c2.(basis.(i)) *. b.(i))
              end
            done;
            (Lp_optimal, !obj, x)
      end

(* ------------------------------------------------------------------ *)
(* Cycle detection on the chosen cluster graph                         *)
(* ------------------------------------------------------------------ *)

(* [chosen] are disjoint covering column ids; returns the ids on one
   condensation cycle, or [] if the partition is acyclic. *)
let find_cycle g cols chosen =
  let n = Core.Asdg.n g in
  let owner = Array.make n (-1) in
  List.iteri
    (fun k id -> List.iter (fun s -> owner.(s) <- k) cols.(id))
    chosen;
  let nk = List.length chosen in
  let adj = Array.make nk [] in
  List.iter
    (fun (i, j) ->
      let a = owner.(i) and b = owner.(j) in
      if a >= 0 && b >= 0 && a <> b && not (List.mem b adj.(a)) then
        adj.(a) <- b :: adj.(a))
    (Core.Asdg.edges g);
  Array.iteri (fun k l -> adj.(k) <- List.sort compare l) adj;
  let color = Array.make nk 0 in
  let cycle = ref [] in
  let rec dfs path k =
    if !cycle = [] then
      if color.(k) = 1 then begin
        (* back edge: the cycle is the path suffix from [k] *)
        let rec suffix = function
          | [] -> []
          | x :: tl -> if x = k then [ x ] else x :: suffix tl
        in
        cycle := suffix path
      end
      else if color.(k) = 0 then begin
        color.(k) <- 1;
        List.iter (fun k' -> dfs (k' :: path) k') adj.(k);
        color.(k) <- 2
      end
  in
  for k = 0 to nk - 1 do
    if !cycle = [] && color.(k) = 0 then dfs [ k ] k
  done;
  let arr = Array.of_list chosen in
  List.map (fun k -> arr.(k)) !cycle

(* ------------------------------------------------------------------ *)
(* Branch and cut                                                      *)
(* ------------------------------------------------------------------ *)

let block ?(probe = fun (_ : Core.Partition.t) -> ()) ?(seeds = []) cfg cost_t
    ~block ~candidates g =
  Obs.span "plan-ilp" @@ fun () ->
  let n = Core.Asdg.n g in
  let t0 = Core.Partition.trivial g in
  let weight_of =
    Cost.cluster_weight cost_t ~block (Cost.facts cost_t ~block ~candidates g)
  in
  let full_cost p =
    let contracted = Core.Contraction.scalars p ~candidates in
    let bp =
      {
        Sir.Scalarize.partition = p;
        contracted = List.map (fun x -> (x, Core.Contraction.Scalar)) contracted;
        absorbed = [];
      }
    in
    (Cost.block_cost cost_t ~block bp).Cost.total_ns
  in
  let separable p =
    List.fold_left
      (fun acc c -> acc +. weight_of c)
      0.0
      (Core.Partition.clusters p)
  in
  (* ---- columns --------------------------------------------------- *)
  let cols, complete = enumerate cfg (Pairs.create g) g in
  let ncols = Array.length cols in
  let w_ns =
    Array.of_list
      (Support.Pool.map
         ~domains:(Cost.pricing_domains cost_t ~jobs:cfg.jobs)
         weight_of (Array.to_list cols))
  in
  (* scale the objective to O(1) so simplex tolerances are meaningful *)
  let scale = Array.fold_left (fun acc v -> Float.max acc v) 1.0 w_ns in
  let w = Array.map (fun v -> v /. scale) w_ns in
  (* ---- incumbents ------------------------------------------------ *)
  let greedy_p =
    Core.Fusion.for_locality (Core.Fusion.for_contraction ~candidates g)
  in
  let seeds = greedy_p :: seeds in
  let best_sep = ref infinity in
  List.iter
    (fun p ->
      let s = separable p in
      if s < !best_sep -. Cost.eps then best_sep := s)
    (t0 :: seeds);
  let ilp_found = ref None in
  (* ---- search ---------------------------------------------------- *)
  let cuts = ref [] in
  let ncuts = ref 0 in
  let pivots = ref 0 in
  let nodes = ref 0 in
  let aborted = ref false in
  let root_lb = ref neg_infinity in
  let prune_tol = Float.max (Cost.eps /. scale) 1e-9 in
  let stack = ref [ (Bytes.make ncols '\000', []) ] in
  while !stack <> [] && not !aborted do
    match !stack with
    | [] -> ()
    | (fixed0, fixed1) :: rest ->
        stack := rest;
        incr nodes;
        if !nodes > max_nodes then aborted := true
        else begin
          let covered = Array.make n false in
          List.iter
            (fun id -> List.iter (fun s -> covered.(s) <- true) cols.(id))
            fixed1;
          let offset =
            List.fold_left (fun acc id -> acc +. w.(id)) 0.0 fixed1
          in
          let lpcol = Array.make ncols (-1) in
          let act = ref [] in
          for id = ncols - 1 downto 0 do
            if
              Bytes.get fixed0 id = '\000'
              && not (List.exists (fun s -> covered.(s)) cols.(id))
            then act := id :: !act
          done;
          let act_cols = Array.of_list !act in
          Array.iteri (fun j id -> lpcol.(id) <- j) act_cols;
          let eq_rows =
            Array.of_list
              (List.filter (fun s -> not covered.(s)) (List.init n Fun.id))
          in
          let infeasible = ref false in
          let cut_rows =
            List.filter_map
              (fun cut ->
                let base = Array.length cut - 1 in
                let n1 =
                  Array.fold_left
                    (fun acc id -> if List.mem id fixed1 then acc + 1 else acc)
                    0 cut
                in
                let rhs = base - n1 in
                if rhs < 0 then begin
                  infeasible := true;
                  None
                end
                else
                  let members =
                    Array.to_list cut
                    |> List.filter_map (fun id ->
                           if lpcol.(id) >= 0 then Some lpcol.(id) else None)
                  in
                  if List.length members <= rhs then None
                  else Some (members, rhs))
              !cuts
            |> Array.of_list
          in
          if not !infeasible then begin
            match
              solve_lp ~w ~n cols ~act_cols ~eq_rows ~cut_rows
                ~budget:cfg.max_pivots pivots
            with
            | Lp_limit, _, _ -> aborted := true
            | Lp_infeasible, _, _ -> ()
            | Lp_optimal, obj, x ->
                let bound = obj +. offset in
                if fixed1 = [] && Bytes.index_opt fixed0 '\001' = None then
                  root_lb := Float.max !root_lb bound;
                if bound >= (!best_sep /. scale) -. prune_tol then ()
                else begin
                  let fractional = ref (-1) in
                  let best_frac = ref 0.5 in
                  Array.iteri
                    (fun j v ->
                      if v > 1e-6 && v < 1.0 -. 1e-6 then begin
                        let d = abs_float (v -. 0.5) in
                        if d < !best_frac -. 1e-12 then begin
                          best_frac := d;
                          fractional := j
                        end
                      end)
                    x;
                  if !fractional < 0 then begin
                    (* integral: a candidate partition *)
                    let chosen =
                      fixed1
                      @ (Array.to_list
                           (Array.mapi
                              (fun j v ->
                                if v > 1.0 -. 1e-6 then Some act_cols.(j)
                                else None)
                              x)
                        |> List.filter_map Fun.id)
                      |> List.sort compare
                    in
                    match find_cycle g cols chosen with
                    | [] ->
                        let p =
                          List.fold_left
                            (fun p id ->
                              if List.length cols.(id) > 1 then
                                Core.Partition.merge p cols.(id)
                              else p)
                            (Core.Partition.trivial g)
                            chosen
                        in
                        let s = bound *. scale in
                        if s < !best_sep -. Cost.eps then begin
                          best_sep := s;
                          ilp_found := Some p
                        end
                    | cycle ->
                        (* lazy acyclicity cut, globally valid: not all
                           clusters of a condensation cycle can coexist *)
                        cuts := Array.of_list cycle :: !cuts;
                        incr ncuts;
                        stack := (fixed0, fixed1) :: !stack
                  end
                  else begin
                    let id = act_cols.(!fractional) in
                    let f0 = Bytes.copy fixed0 in
                    Bytes.set f0 id '\001';
                    (* explore the fix-to-1 child first: it reaches
                       integral incumbents sooner *)
                    stack :=
                      (fixed0, id :: fixed1) :: (f0, fixed1) :: !stack
                  end
                end
          end
        end
  done;
  let proved = complete && not !aborted in
  (* ---- final ranking on the full model --------------------------- *)
  let key p =
    String.concat "."
      (List.init n (fun i -> string_of_int (Core.Partition.cluster_of p i)))
  in
  let candidates_p =
    let all =
      (match !ilp_found with Some p -> [ p ] | None -> [])
      @ seeds @ [ t0 ]
    in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun p ->
        let k = key p in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      all
  in
  let ranked =
    List.map
      (fun p ->
        probe p;
        (full_cost p, p))
      candidates_p
  in
  let chosen_ns, chosen =
    List.fold_left
      (fun (bn, bp) (ns, p) ->
        if ns < bn -. Cost.eps then (ns, p) else (bn, bp))
      (List.hd ranked) (List.tl ranked)
  in
  let greedy_ns = full_cost greedy_p in
  let flop_ns = Cost.flop_ns cost_t ~block in
  let lower_bound_ns =
    if not complete then None
    else if proved then Some (!best_sep +. flop_ns)
    else if !root_lb > neg_infinity then Some ((!root_lb *. scale) +. flop_ns)
    else None
  in
  if Obs.enabled () then begin
    Obs.count "plan.ilp.columns" ncols;
    Obs.count "plan.ilp.nodes" !nodes;
    Obs.count "plan.ilp.cuts" !ncuts;
    Obs.count "plan.ilp.pivots" !pivots;
    Obs.count "plan.ilp.proved" (if proved then 1 else 0)
  end;
  ( chosen,
    {
      clusters = ncols;
      complete;
      nodes = !nodes;
      cuts = !ncuts;
      pivots = !pivots;
      proved;
      objective_exact = (Cost.cfg cost_t).Cost.procs <= 1;
      lower_bound_ns;
      greedy_ns;
      best_ns = chosen_ns;
      improved = chosen_ns < greedy_ns -. Cost.eps;
    } )
