(* Statement sets are bitsets over the block's statements: [word] bits
   to an int, bit [i mod word] of word [i / word] for statement [i]. *)
let word = Sys.int_size
let mem set i = set.(i / word) land (1 lsl (i mod word)) <> 0

let add set i =
  let w = i / word in
  set.(w) <- set.(w) lor (1 lsl (i mod word))

module Memo = Hashtbl.Make (Support.Vec)

(* The per-pair fields are n × n and symmetric, pair (i, j) at
   [i * n + j]. *)
type t = {
  g : Core.Asdg.t;
  n : int;
  region : int array;  (** statement -> its region class *)
  flow : Bytes.t;  (** a loop-carried flow runs between the pair *)
  compat : Bytes.t;  (** the pair alone passes (i), (ii) and (iv) *)
  udvs : Support.Vec.t list array;  (** the pair's UDVs, in label order *)
  verdicts : (unit, Core.Partition.veto) result Memo.t;
      (** statement set -> its verdict *)
}

let create g =
  let n = Core.Asdg.n g in
  let region_of i = (Core.Asdg.stmt g i).Ir.Nstmt.region in
  (* a statement's region class: the first statement with an equal
     region *)
  let region = Array.init n Fun.id in
  for i = 1 to n - 1 do
    let j = ref 0 in
    while not (Ir.Region.equal (region_of !j) (region_of i)) do
      incr j
    done;
    region.(i) <- region.(!j)
  done;
  let flow = Bytes.make (n * n) '\000' in
  let compat = Bytes.make (n * n) '\000' in
  let udvs = Array.make (n * n) [] in
  let set b i j =
    Bytes.set b ((i * n) + j) '\001';
    Bytes.set b ((j * n) + i) '\001'
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let labels = Core.Asdg.labels g i j in
      let u = List.map (fun (l : Core.Dep.label) -> l.udv) labels in
      udvs.((i * n) + j) <- u;
      udvs.((j * n) + i) <- u;
      if
        List.exists
          (fun (l : Core.Dep.label) ->
            l.kind = Core.Dep.Flow && not (Support.Vec.is_null l.udv))
          labels
      then set flow i j
      else if
        region.(i) = region.(j)
        && (labels = []
           || Core.Loopstruct.find ~rank:(Ir.Region.rank (region_of i)) u
              <> None)
      then set compat i j
    done
  done;
  { g; n; region; flow; compat; udvs; verdicts = Memo.create 256 }

let words t = (t.n + word - 1) / word
let compat t i j = Bytes.get t.compat ((i * t.n) + j) = '\001'
let udvs t i j = t.udvs.((i * t.n) + j)

(* Definition 5 (i), (ii) and (iv) on the set, reporting the first
   violated condition as Core.Partition.check_merge does: (i) and (ii)
   per pair, then FIND-LOOP-STRUCTURE over the pairs' UDVs, collected
   in ASDG edge order as check_merge collects them. *)
let verdict t set =
  let members = ref [] in
  for i = t.n - 1 downto 0 do
    if mem set i then members := i :: !members
  done;
  let rec some_flow = function
    | [] -> false
    | i :: rest ->
        List.exists (fun j -> Bytes.get t.flow ((i * t.n) + j) = '\001') rest
        || some_flow rest
  in
  let rec within = function
    | [] -> []
    | i :: rest -> List.concat_map (udvs t i) rest @ within rest
  in
  match !members with
  | [] -> Ok ()
  | s :: _ as ms ->
      let rank = Ir.Region.rank (Core.Asdg.stmt t.g s).Ir.Nstmt.region in
      if List.exists (fun i -> t.region.(i) <> t.region.(s)) ms then
        Error Core.Partition.Region_mismatch
      else if some_flow ms then Error Core.Partition.Nonnull_flow
      else if Core.Loopstruct.find ~rank (within ms) <> None then Ok ()
      else Error Core.Partition.No_loop_structure

let vet t set =
  match Memo.find_opt t.verdicts set with
  | Some v -> v
  | None ->
      let v = verdict t set in
      Memo.add t.verdicts set v;
      v
