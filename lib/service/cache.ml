type key = {
  fingerprint : string;
  mode : string;
  machine : string;
  procs : int;
}

let key_to_string k =
  Printf.sprintf "%s/%s@%sx%d" k.fingerprint k.mode k.machine k.procs

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  entries : int;
}

(* Entries carry the tick of their last touch; eviction scans for the
   minimum, which is exact LRU at O(capacity) per eviction — cheaper
   than a cold compile by orders of magnitude, and much harder to get
   wrong than an intrusive list. *)
type 'v entry = { value : 'v; mutable tick : int }

(* [lock] guards every mutable field and both tables *)
type 'v t = {
  lock : Mutex.t;
  settled : Condition.t;  (* broadcast whenever a computing key is released *)
  table : (string, 'v entry) Hashtbl.t;
  computing : (string, unit) Hashtbl.t;
  capacity : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable insertions : int;
}

let create ?(capacity = 256) () =
  let capacity = max 1 capacity in
  {
    lock = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create (capacity * 2);
    computing = Hashtbl.create 8;
    capacity;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    insertions = 0;
  }

let capacity t = t.capacity

(* The helpers below run with [t.lock] held. *)

let lookup t ks =
  match Hashtbl.find_opt t.table ks with
  | Some e ->
      t.clock <- t.clock + 1;
      e.tick <- t.clock;
      Some e.value
  | None -> None

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun ks e ->
      match !victim with
      | Some (_, best) when best.tick <= e.tick -> ()
      | _ -> victim := Some (ks, e))
    t.table;
  Option.iter
    (fun (ks, _) ->
      Hashtbl.remove t.table ks;
      t.evictions <- t.evictions + 1)
    !victim

let insert t ks v =
  if not (Hashtbl.mem t.table ks) then begin
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table ks { value = v; tick = t.clock };
    t.insertions <- t.insertions + 1
  end

let counted_lookup t ks =
  let hit = lookup t ks in
  if Option.is_some hit then t.hits <- t.hits + 1
  else t.misses <- t.misses + 1;
  hit

let find t k =
  let ks = key_to_string k in
  Mutex.protect t.lock (fun () -> counted_lookup t ks)

let add t k v =
  let ks = key_to_string k in
  Mutex.protect t.lock (fun () -> insert t ks v)

let find_or_compute t k compute =
  let ks = key_to_string k in
  (* after a counted miss: wait while another caller computes [ks],
     then take its value, or claim [ks] ([None]) when there is none *)
  let rec await () =
    if Hashtbl.mem t.computing ks then begin
      Condition.wait t.settled t.lock;
      match lookup t ks with Some _ as hit -> hit | None -> await ()
    end
    else begin
      Hashtbl.replace t.computing ks ();
      None
    end
  in
  let hit, found =
    Mutex.protect t.lock (fun () ->
        match counted_lookup t ks with
        | Some _ as found -> (true, found)
        | None -> (false, await ()))
  in
  match found with
  | Some v -> Ok (v, hit)
  | None ->
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect t.lock (fun () ->
              Hashtbl.remove t.computing ks;
              Condition.broadcast t.settled))
        (fun () ->
          let r = compute () in
          Result.iter (fun v -> Mutex.protect t.lock (fun () -> insert t ks v)) r;
          Result.map (fun v -> (v, false)) r)

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        insertions = t.insertions;
        entries = Hashtbl.length t.table;
      })
