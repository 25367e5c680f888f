type config = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let config_sets c =
  if not (is_pow2 c.line_bytes) then
    invalid_arg "Cache: line size must be a power of two";
  if c.assoc < 1 then invalid_arg "Cache: associativity must be >= 1";
  if c.size_bytes mod (c.line_bytes * c.assoc) <> 0 then
    invalid_arg "Cache: size not divisible by line*assoc";
  c.size_bytes / (c.line_bytes * c.assoc)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
}

type t = {
  cfg : config;
  sets : int;
  line_shift : int;
  tags : int array;  (** sets*assoc entries; -1 = invalid *)
  ages : int array;  (** LRU stamps *)
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let log2 x =
  let rec go n x = if x <= 1 then n else go (n + 1) (x lsr 1) in
  go 0 x

let create cfg =
  let sets = config_sets cfg in
  {
    cfg;
    sets;
    line_shift = log2 cfg.line_bytes;
    tags = Array.make (sets * cfg.assoc) (-1);
    ages = Array.make (sets * cfg.assoc) 0;
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let access t ~addr =
  let line = addr lsr t.line_shift in
  let set = line mod t.sets in
  let assoc = t.cfg.assoc in
  let base = set * assoc in
  let tags = t.tags and ages = t.ages in
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  (* a plain loop over the set's ways: this runs once per simulated
     access, so it allocates nothing *)
  let way = ref 0 in
  while !way < assoc && tags.(base + !way) <> line do
    incr way
  done;
  if !way < assoc then begin
    t.hits <- t.hits + 1;
    ages.(base + !way) <- t.clock;
    true
  end
  else begin
    (* evict the LRU way *)
    let victim = ref 0 in
    for i = 1 to assoc - 1 do
      if ages.(base + i) < ages.(base + !victim) then victim := i
    done;
    tags.(base + !victim) <- line;
    ages.(base + !victim) <- t.clock;
    false
  end

(* A set of a fresh cache: every way invalid, every stamp 0.  Later
   stamps only grow, so an invalidated set picks its victims, and hits,
   exactly as a fresh one does, whatever the clock says. *)
let invalidate t ~addr =
  let set = (addr lsr t.line_shift) mod t.sets in
  let base = set * t.cfg.assoc in
  for way = base to base + t.cfg.assoc - 1 do
    t.tags.(way) <- -1;
    t.ages.(way) <- 0
  done

let stats t =
  { accesses = t.accesses; hits = t.hits; misses = t.accesses - t.hits }


let miss_rate (s : stats) =
  if s.accesses = 0 then 0.0
  else float_of_int s.misses /. float_of_int s.accesses

module Hierarchy = struct
  type h = {
    l1 : t;
    l2 : t option;
  }

  let create ~l1 ?l2 () =
    { l1 = create l1; l2 = Option.map create l2 }

  let access h ~addr ~write:_ =
    if not (access h.l1 ~addr) then
      match h.l2 with
      | Some l2 -> ignore (access l2 ~addr)
      | None -> ()

  let invalidate h ~addr =
    invalidate h.l1 ~addr;
    match h.l2 with Some l2 -> invalidate l2 ~addr | None -> ()

  let l1_stats h = stats h.l1
  let l2_stats h = Option.map stats h.l2

  let observe ?(prefix = "cache") h =
    if Obs.enabled () then begin
      let level name (s : stats) =
        Obs.count (Printf.sprintf "%s.%s.accesses" prefix name) s.accesses;
        Obs.count (Printf.sprintf "%s.%s.hits" prefix name) s.hits;
        Obs.count (Printf.sprintf "%s.%s.misses" prefix name) s.misses
      in
      level "l1" (l1_stats h);
      Option.iter (level "l2") (l2_stats h)
    end
end
