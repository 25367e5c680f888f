type cfg = {
  max_states : int;
  beam_width : int;
  jobs : int;
}

let default = { max_states = 16000; beam_width = 12; jobs = 1 }

type stats = {
  expanded : int;
  generated : int;
  pruned : int;
  deduped : int;
  beam_rounds : int;
  greedy_ns : float;
  best_ns : float;
  improved : bool;
}

(* A priced state.  Besides its partition and price it keeps what
   pricing a child reuses: each statement's cluster representative, the
   candidates it scalar-contracts, and each cluster's (L1, L2) misses
   under those contractions. *)
type state = {
  p : Core.Partition.t;
  ids : int array;
      (** statement -> cluster representative: the state's identity *)
  contracted : bool array;  (** per candidate, in [candidates] order *)
  misses : (float * float) array;
      (** per representative: the cluster's [Cost.cluster_misses] *)
  cost : Cost.breakdown;
}

(* Canonical state identity: the cluster-representative vector.  Two
   partitions with the same vector are the same partition, so the
   visited table is keyed on it, and the beam breaks cost ties on its
   printed form. *)
module Visited = Hashtbl.Make (Support.Vec)

let key_of ids =
  String.concat "." (Array.to_list (Array.map string_of_int ids))

(* Merge sets are ascending representative lists, ordered as
   polymorphic [compare] orders them, by an int comparison. *)
let rec compare_sets a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (x : int) :: a', y :: b' ->
      if x < y then -1 else if x > y then 1 else compare_sets a' b'

(* The union of two ascending lists with no element in common. *)
let rec union a b =
  match (a, b) with
  | [], l | l, [] -> l
  | (x : int) :: a', y :: b' ->
      if x < y then x :: union a' b else y :: union a b'

(* The merge sets tried from [p], whose statement -> representative
   vector is [ids]: the Figure-3 array moves plus pairwise cluster
   merges, each closed under GROW.  GROW answers outside its ascending
   argument in ascending order, so a closure is one list merge. *)
let sets g p ids =
  let grow = Core.Partition.grow p in
  let closure c = union c (grow c) in
  let array_moves =
    List.filter_map
      (fun x ->
        match
          List.sort_uniq Int.compare
            (List.map (fun i -> ids.(i)) (Core.Asdg.stmts_referencing g x))
        with
        | [] | [ _ ] -> None
        | c -> Some (closure c))
      (Core.Asdg.vars g)
  in
  let reps = List.map List.hd (Core.Partition.clusters p) in
  let rec pair_moves acc = function
    | [] -> acc
    | r1 :: rest ->
        pair_moves
          (List.fold_left (fun acc r2 -> closure [ r1; r2 ] :: acc) acc rest)
          rest
  in
  List.sort_uniq compare_sets (pair_moves array_moves reps)

let ids_of p =
  Array.init (Core.Asdg.n (Core.Partition.asdg p)) (Core.Partition.cluster_of p)

let merge_sets g p = sets g p (ids_of p)

(* Each merge set from [p] with the pair table's verdict on its
   statements: the set's clusters' statement bitsets, OR-ed.  Every
   state is acyclic and every merge set grow-closed, so merging cannot
   form a cycle: only Definition 5 (i), (ii) and (iv) are left to
   vet. *)
let vetted pairs p =
  let ids = ids_of p in
  let words = Pairs.words pairs in
  let rows = Array.make_matrix (Array.length ids) words 0 in
  Array.iteri (fun i r -> Pairs.add rows.(r) i) ids;
  List.map
    (fun c ->
      let set = Array.make words 0 in
      List.iter
        (fun r ->
          let row = rows.(r) in
          for w = 0 to words - 1 do
            set.(w) <- set.(w) lor row.(w)
          done)
        c;
      (c, Pairs.vet pairs set))
    (sets (Core.Partition.asdg p) p ids)

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

(* The [width] smallest of [entries] in (cost, printed key) order,
   ties kept in list order: the stable sort by that order, then [take
   width].  Only the entries at or below the [width]-th smallest cost
   can be taken, so only theirs are printed and sorted. *)
let beam_pick width entries =
  if width <= 0 then []
  else begin
    (* the [width] smallest costs, ascending; infinity past the list's
       length, where every entry is at or below the cutoff *)
    let least = Array.make width Float.infinity in
    List.iter
      (fun (q, _, _) ->
        if Float.compare q least.(width - 1) < 0 then begin
          let i = ref (width - 1) in
          while !i > 0 && Float.compare q least.(!i - 1) < 0 do
            least.(!i) <- least.(!i - 1);
            decr i
          done;
          least.(!i) <- q
        end)
      entries;
    List.filter_map
      (fun (q, ids, x) ->
        if Float.compare q least.(width - 1) <= 0 then Some (q, key_of ids, x)
        else None)
      entries
    |> List.stable_sort (fun (q1, k1, _) (q2, k2, _) ->
           match Float.compare q1 q2 with 0 -> String.compare k1 k2 | c -> c)
    |> take width
    |> List.map (fun (_, _, x) -> x)
  end

let block ?(probe = fun (_ : Core.Partition.t) (_ : Cost.breakdown) -> ())
    ?on_pick cfg cost_t ~block ~candidates g =
  Obs.span "plan-search" @@ fun () ->
  Support.Pool.with_workers ~domains:cfg.jobs @@ fun workers ->
  let n = Core.Asdg.n g in
  let tbl = Cost.facts cost_t ~block ~candidates g in
  let pair_table = Pairs.create g in
  (* the slot flags of the contracted candidates, and the reference
     weight they save *)
  let contraction contracted =
    let flags = Array.make (Cost.slots cost_t ~block) false
    and saved = ref 0 in
    Array.iteri
      (fun k on ->
        if on then begin
          let f = tbl.cands.(k) in
          if f.Cost.slot >= 0 then flags.(f.Cost.slot) <- true;
          saved := !saved + f.Cost.weight
        end)
      contracted;
    (flags, !saved)
  in
  (* The price of a state whose [ids], [contracted] flags (and the
     candidates they name, in order) and cluster [misses] are known.
     Pure: safe to evaluate from any pool worker (Cost.t serializes its
     memo internally; everything else it touches is read-only or owned
     by this state). *)
  let price p ids contracted names ~saved misses =
    let bp =
      {
        Sir.Scalarize.partition = p;
        contracted = List.map (fun x -> (x, Core.Contraction.Scalar)) names;
        absorbed = [];
      }
    in
    (* Core.Partition.clusters order: ascending representatives *)
    let pairs = ref [] in
    for i = n - 1 downto 0 do
      if ids.(i) = i then pairs := misses.(i) :: !pairs
    done;
    let cost = Cost.block_cost_of_misses cost_t ~block bp ~saved !pairs in
    { p; ids; contracted; misses; cost }
  in
  let expanded = ref 0
  and generated = ref 0
  and pruned = ref 0
  and deduped = ref 0
  and beam_rounds = ref 0 in
  (* A seed is priced from scratch, on the calling domain. *)
  let seed p =
    incr generated;
    let ids = ids_of p in
    let decided = Core.Contraction.scalars p ~candidates in
    let contracted =
      Array.map (fun x -> List.exists (String.equal x) decided) tbl.names
    in
    let flags, saved = contraction contracted in
    let misses = Array.make n (0.0, 0.0) in
    List.iter
      (fun cl ->
        misses.(List.hd cl) <-
          Cost.cluster_misses cost_t ~block cl ~contracted:flags)
      (Core.Partition.clusters p);
    let st = price p ids contracted decided ~saved misses in
    probe st.p st.cost;
    st
  in
  (* A child differs from its parent only in the merged cluster [rep]:
     merging never un-contracts an array, an array it newly contracts
     has every reference in [rep], and so every other cluster sweeps
     exactly the streams it swept in the parent.  Only [rep] is probed;
     the pairs are then re-folded in cluster order by the same formula
     as Cost.block_cost, so the price is bit-identical. *)
  let child (parent, p, ids, rep) =
    let contracted = Array.copy parent.contracted in
    Array.iteri
      (fun k f ->
        if
          (not contracted.(k))
          && f.Cost.eligible
          && Array.for_all (fun r -> ids.(r) = rep) f.Cost.refs
        then contracted.(k) <- true)
      tbl.cands;
    let names = ref [] and members = ref [] in
    for k = Array.length contracted - 1 downto 0 do
      if contracted.(k) then names := tbl.names.(k) :: !names
    done;
    for i = n - 1 downto rep do
      if ids.(i) = rep then members := i :: !members
    done;
    let flags, saved = contraction contracted in
    let misses = Array.copy parent.misses in
    misses.(rep) <-
      Cost.cluster_misses cost_t ~block !members ~contracted:flags;
    price p ids contracted !names ~saved misses
  in
  (* seeds: the trivial partition and the paper's greedy c2+f3 result;
     the cheaper is the first incumbent *)
  let trivial = seed (Core.Partition.trivial g) in
  let greedy_p =
    Core.Fusion.for_locality (Core.Fusion.for_contraction ~candidates g)
  in
  let greedy =
    if Support.Vec.equal (ids_of greedy_p) trivial.ids then trivial
    else seed greedy_p
  in
  let incumbent =
    ref
      (if trivial.cost.Cost.total_ns < greedy.cost.Cost.total_ns -. Cost.eps
       then trivial
       else greedy)
  in
  let visited = Visited.create 256 in
  Visited.replace visited trivial.ids ();
  Visited.replace visited greedy.ids ();
  (* The merges a round prices: every vetted merge set of every beam
     state whose result is not yet visited, in beam order.  This
     sequential prefix (move enumeration, keying, visited bookkeeping,
     stat counters) fixes exactly which states get priced and in what
     order; only the pure pricing fans out over the search's workers,
     and a batch returns in task order, so stats, probes and tie-breaks
     are independent of [cfg.jobs]. *)
  let marked = Bytes.make n '\000' in
  let merges st =
    List.filter_map
      (fun (c, verdict) ->
        match verdict with
        | Error _ -> None
        | Ok () ->
            let rep = List.hd c in
            List.iter (fun r -> Bytes.set marked r '\001') c;
            let ids =
              Array.map
                (fun r -> if Bytes.get marked r = '\001' then rep else r)
                st.ids
            in
            List.iter (fun r -> Bytes.set marked r '\000') c;
            if Visited.mem visited ids then begin
              incr deduped;
              None
            end
            else begin
              Visited.replace visited ids ();
              incr generated;
              Some (st, Core.Partition.merge st.p c, ids, rep)
            end)
      (vetted pair_table st.p)
  in
  (* eps-canonical order: costs are compared at [Cost.eps] granularity
     so that states the search already treats as equal-cost are ranked
     by their canonical cluster-rep key, not by sub-eps float noise —
     which states survive [take beam_width] must not depend on how the
     costs were accumulated.  Quantizing keeps the comparison a total
     order (lexicographic on a pure function of the state), unlike an
     eps-tolerant float comparison, which is not transitive. *)
  let quantize st = Float.round (st.cost.Cost.total_ns /. Cost.eps) in
  let pick states =
    let picked =
      beam_pick cfg.beam_width
        (List.map (fun st -> (quantize st, st.ids, st)) states)
    in
    Option.iter
      (fun f ->
        let view = List.map (fun st -> (quantize st, st.ids)) in
        f cfg.beam_width (view states) (view picked))
      on_pick;
    picked
  in
  (* a block of n statements admits at most n-1 merges from any state,
     so n rounds always reach a fixpoint *)
  let rec round beam =
    if !beam_rounds < n && !generated < cfg.max_states then begin
      incr beam_rounds;
      expanded := !expanded + List.length beam;
      let kids =
        Support.Pool.batch workers child (List.concat_map merges beam)
      in
      List.iter
        (fun st ->
          probe st.p st.cost;
          if st.cost.Cost.total_ns < !incumbent.cost.Cost.total_ns -. Cost.eps
          then incumbent := st)
        kids;
      match kids with
      | [] -> ()
      | _ ->
          let beam = pick kids in
          pruned := !pruned + List.length kids - List.length beam;
          round beam
    end
  in
  round (if greedy == trivial then [ trivial ] else [ trivial; greedy ]);
  if Obs.enabled () then begin
    Obs.count "plan.nodes-expanded" !expanded;
    Obs.count "plan.states-generated" !generated;
    Obs.count "plan.nodes-pruned" !pruned;
    Obs.count "plan.states-deduped" !deduped;
    Obs.count "plan.beam-rounds" !beam_rounds
  end;
  let best = !incumbent in
  ( best.p,
    {
      expanded = !expanded;
      generated = !generated;
      pruned = !pruned;
      deduped = !deduped;
      beam_rounds = !beam_rounds;
      greedy_ns = greedy.cost.Cost.total_ns;
      best_ns = best.cost.Cost.total_ns;
      improved = best.cost.Cost.total_ns < greedy.cost.Cost.total_ns -. Cost.eps;
    } )
