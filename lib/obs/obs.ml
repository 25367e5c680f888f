(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let float_str f =
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      "null" (* JSON has no non-finite numbers *)
    else if Float.is_integer f && Float.abs f < 1e15 then
      (* integral floats print with a trailing ".0" so they stay floats *)
      Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_str f)
    | String s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            write b x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    write b t;
    Buffer.contents b

  let rec pp ppf = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v ->
        Format.pp_print_string ppf (to_string v)
    | List [] -> Format.pp_print_string ppf "[]"
    | List xs ->
        Format.fprintf ppf "@[<v 2>[@,%a@]@,]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
             pp)
          xs
    | Obj [] -> Format.pp_print_string ppf "{}"
    | Obj kvs ->
        Format.fprintf ppf "@[<v 2>{@,%a@]@,}"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,")
             (fun ppf (k, v) -> Format.fprintf ppf "\"%s\": %a" (escape k) pp v))
          kvs

  exception Parse of string

  (* Past this many open brackets the parser gives up: nesting costs
     stack, and no value this repo prints nests more than a few
     levels. *)
  let max_depth = 512

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s at %d" m !pos))) fmt
    in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance () else fail "expected %C" c
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> Buffer.add_char b '"'; advance (); go ()
            | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
            | Some '/' -> Buffer.add_char b '/'; advance (); go ()
            | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
            | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
            | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
            | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
            | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
            | Some 'u' ->
                advance ();
                let hex i =
                  match s.[!pos + i] with
                  | '0' .. '9' as c -> Char.code c - Char.code '0'
                  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                  | _ -> fail "bad \\u escape"
                in
                if !pos + 4 > n then fail "bad \\u escape";
                let code =
                  (hex 0 lsl 12) lor (hex 1 lsl 8) lor (hex 2 lsl 4) lor hex 3
                in
                pos := !pos + 4;
                (* our own printer only escapes control characters *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_char b '?';
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number %S" tok)
    in
    let rec parse_value depth =
      if depth > max_depth then fail "nested deeper than %d" max_depth;
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); List [] end
          else begin
            let items = ref [ parse_value (depth + 1) ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items := parse_value (depth + 1) :: !items;
                  more ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            more ();
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              (k, v)
            in
            let items = ref [ field () ] in
            let rec more () =
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items := field () :: !items;
                  more ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            more ();
            Obj (List.rev !items)
          end
      | Some c -> if is_start_of_number c then parse_number () else fail "unexpected %C" c
    and is_start_of_number c =
      match c with '0' .. '9' | '-' -> true | _ -> false
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then raise (Parse "trailing garbage");
      v
    with
    | v -> Ok v
    | exception Parse m -> Error m

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let rec find v path =
    match path with
    | [] -> Some v
    | k :: rest -> ( match member k v with None -> None | Some v' -> find v' rest)
end

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

module Codec = struct
  type 'a t = { encode : 'a -> Json.t; decode : Json.t -> ('a, string) result }

  let encode c = c.encode
  let decode c = c.decode
  let ( let* ) = Result.bind
  let in_member name r = Result.map_error (Printf.sprintf "%s: %s" name) r

  let all f l =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: tl ->
          let* y = f x in
          go (y :: acc) tl
    in
    go [] l

  let scalar what encode of_json =
    let decode j =
      match of_json j with Some v -> Ok v | None -> Error ("expected " ^ what)
    in
    { encode; decode }

  let string =
    scalar "a string" (fun s -> Json.String s) (function
      | Json.String s -> Some s
      | _ -> None)

  let bool =
    scalar "a boolean" (fun b -> Json.Bool b) (function
      | Json.Bool b -> Some b
      | _ -> None)

  (* an integral float is an int too, inside the range where
     int_of_float is defined *)
  let int =
    scalar "an integer" (fun i -> Json.Int i) (function
      | Json.Int i -> Some i
      | Json.Float f
        when Float.is_integer f
             && f >= Float.of_int min_int
             && f < -.Float.of_int min_int ->
          Some (int_of_float f)
      | _ -> None)

  let float =
    scalar "a number" (fun f -> Json.Float f) (function
      | Json.Int i -> Some (float_of_int i)
      | Json.Float f -> Some f
      | _ -> None)

  let json = { encode = Fun.id; decode = Result.ok }

  let const v =
    scalar (Json.to_string v) (fun () -> v) (fun j ->
        if j = v then Some () else None)

  let check f c =
    let decode j =
      let* v = c.decode j in
      Result.map (fun () -> v) (f v)
    in
    { c with decode }

  let conv of_a to_a c =
    let decode j = Result.map of_a (c.decode j) in
    { encode = (fun b -> c.encode (to_a b)); decode }

  let list c =
    let decode = function
      | Json.List l -> all c.decode l
      | _ -> Error "expected an array"
    in
    { encode = (fun l -> Json.List (List.map c.encode l)); decode }

  let assoc c =
    let member (k, v) = Result.map (fun v -> (k, v)) (in_member k (c.decode v))
    in
    let decode = function
      | Json.Obj kvs -> all member kvs
      | _ -> Error "expected an object"
    in
    let encode kvs = Json.Obj (List.map (fun (k, v) -> (k, c.encode v)) kvs) in
    { encode; decode }

  let nullable c =
    let decode = function
      | Json.Null -> Ok None
      | j -> Result.map Option.some (c.decode j)
    in
    { encode = (function None -> Json.Null | Some v -> c.encode v); decode }

  let enum cases =
    let name v = fst (List.find (fun (_, v') -> v' = v) cases) in
    let names = String.concat "|" (List.map fst cases) in
    let decode j =
      let* s = string.decode j in
      match List.assoc_opt s cases with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown value %S (%s)" s names)
    in
    { encode = (fun v -> Json.String (name v)); decode }

  (* the knot is tied once, before any use, so later reads of [self]
     from any domain see the finished codec *)
  let fix f =
    let self = ref None in
    let get () = Option.get !self in
    let c =
      f
        {
          encode = (fun v -> (get ()).encode v);
          decode = (fun j -> (get ()).decode j);
        }
    in
    self := Some c;
    c

  (* Object members.  [write] prepends to a reversed member list; [read]
     looks its members up in the whole object, so unknown members are
     ignored and member order does not matter on input. *)
  type ('r, 'a) fields = {
    write : 'r -> (string * Json.t) list -> (string * Json.t) list;
    read : (string * Json.t) list -> ('a, string) result;
  }

  let record k = { write = (fun _ acc -> acc); read = (fun _ -> Ok k) }

  let ( |+ ) b f =
    let read kvs =
      let* k = b.read kvs in
      let* x = f.read kvs in
      Ok (k x)
    in
    { write = (fun r acc -> f.write r (b.write r acc)); read }

  let field ?default ?(omit = fun _ -> false) name c get =
    let read kvs =
      match (List.assoc_opt name kvs, default) with
      | Some j, _ -> in_member name (c.decode j)
      | None, Some d -> Ok d
      | None, None -> Error (Printf.sprintf "missing field %S" name)
    in
    let write r acc = if omit r then acc else (name, c.encode (get r)) :: acc in
    { write; read }

  let opt name c get =
    field name (nullable c) get ~default:None ~omit:(fun r -> get r = None)

  let spread f get =
    { write = (fun r acc -> f.write (get r) acc); read = f.read }

  let obj f =
    let decode = function
      | Json.Obj kvs -> f.read kvs
      | _ -> Error "expected an object"
    in
    { encode = (fun r -> Json.Obj (List.rev (f.write r []))); decode }

  type 'a case =
    | Case : ('p, 'p) fields * ('a -> 'p option) * ('p -> 'a) -> 'a case

  let case f proj inj = Case (f, proj, inj)

  (* the members of the first case that claims [v], after [tag]'s *)
  let rec write_case tag v acc = function
    | [] -> invalid_arg "Obs.Codec: a value matches no case"
    | (t, Case (f, proj, _)) :: rest -> (
        match proj v with
        | Some p -> f.write p (tag t acc)
        | None -> write_case tag v acc rest)

  let read_case (Case (f, _, inj)) kvs = Result.map inj (f.read kvs)

  let variant key tag cases =
    let read kvs =
      match List.assoc_opt key kvs with
      | None -> Error (Printf.sprintf "missing field %S" key)
      | Some j -> (
          let* t = in_member key (tag.decode j) in
          match List.assoc_opt t cases with
          | Some c -> read_case c kvs
          | None ->
              Error (Printf.sprintf "unknown %s %s" key (Json.to_string j)))
    in
    let write_tag t acc = (key, tag.encode t) :: acc in
    { write = (fun v acc -> write_case write_tag v acc cases); read }

  let keyed cases =
    let read kvs =
      match List.find_opt (fun (k, _) -> List.mem_assoc k kvs) cases with
      | Some (_, c) -> read_case c kvs
      | None ->
          let keys = String.concat " or " (List.map fst cases) in
          Error ("expected a member " ^ keys)
    in
    { write = (fun v acc -> write_case (fun _ acc -> acc) v acc cases); read }
end

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

module Diagnostic = struct
  type severity = Error | Warning

  type t = {
    severity : severity;
    phase : string;
    loc : (string * int) option;
    message : string;
  }

  let error ?loc ~phase message = { severity = Error; phase; loc; message }
  let warning ?loc ~phase message = { severity = Warning; phase; loc; message }

  let errorf ?loc ~phase fmt =
    Printf.ksprintf (fun message -> error ?loc ~phase message) fmt

  let severity_name = function Error -> "error" | Warning -> "warning"

  let to_string d =
    let loc =
      match d.loc with
      | Some (file, line) when line > 0 -> Printf.sprintf "%s:%d: " file line
      | Some (file, _) -> Printf.sprintf "%s: " file
      | None -> ""
    in
    Printf.sprintf "%s%s %s: %s" loc d.phase (severity_name d.severity)
      d.message

  let pp ppf d = Format.pp_print_string ppf (to_string d)

  (* [loc] is spread over two members, both written or neither *)
  let codec =
    let open Codec in
    obj
      (record (fun severity phase file line message ->
           let loc =
             match (file, line) with Some f, Some l -> Some (f, l) | _ -> None
           in
           { severity; phase; loc; message })
      |+ field "severity"
           (enum (List.map (fun s -> (severity_name s, s)) [ Error; Warning ]))
           (fun d -> d.severity)
      |+ field "phase" string (fun d -> d.phase)
      |+ opt "file" string (fun d -> Option.map fst d.loc)
      |+ opt "line" int (fun d -> Option.map snd d.loc)
      |+ field "message" string (fun d -> d.message))
end

exception Error of Diagnostic.t

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type fusion_reason =
  | Not_contractible
  | Region_mismatch
  | Nonnull_flow
  | No_loop_structure
  | Cycle
  | External_veto

let fusion_reason_name = function
  | Not_contractible -> "not-contractible"
  | Region_mismatch -> "region-mismatch"
  | Nonnull_flow -> "nonnull-flow"
  | No_loop_structure -> "no-loop-structure"
  | Cycle -> "cycle"
  | External_veto -> "external-veto"

let all_fusion_reasons =
  [ Not_contractible; Region_mismatch; Nonnull_flow; No_loop_structure;
    Cycle; External_veto ]

type event =
  | Fusion_attempt of { array : string option; clusters : int }
  | Fusion_accept of { array : string option; clusters : int }
  | Fusion_reject of { array : string option; reason : fusion_reason }
  | Contraction_candidate of { array : string }
  | Contraction_perform of { array : string; shape : string }
  | Reduction_absorbed of { reduce : int; cluster : int }
  | Note of { name : string; value : string }

let event_counter = function
  | Fusion_attempt _ -> Some "fusion.attempted"
  | Fusion_accept _ -> Some "fusion.accepted"
  | Fusion_reject { reason; _ } ->
      Some ("fusion.rejected." ^ fusion_reason_name reason)
  | Contraction_candidate _ -> Some "contraction.candidates"
  | Contraction_perform _ -> Some "contraction.performed"
  | Reduction_absorbed _ -> Some "reduction.absorbed"
  | Note _ -> None

let event_text e =
  let arr = function Some x -> " for " ^ x | None -> "" in
  match e with
  | Fusion_attempt { array; clusters } ->
      Printf.sprintf "fusion: attempt %d-cluster merge%s" clusters (arr array)
  | Fusion_accept { array; clusters } ->
      Printf.sprintf "fusion: merged %d clusters%s" clusters (arr array)
  | Fusion_reject { array; reason } ->
      Printf.sprintf "fusion: rejected%s (%s)" (arr array)
        (fusion_reason_name reason)
  | Contraction_candidate { array } ->
      Printf.sprintf "contraction: candidate %s" array
  | Contraction_perform { array; shape } ->
      Printf.sprintf "contraction: %s -> %s" array shape
  | Reduction_absorbed { reduce; cluster } ->
      Printf.sprintf "reduction %d absorbed into cluster P%d" reduce cluster
  | Note { name; value } -> Printf.sprintf "%s: %s" name value

(* ------------------------------------------------------------------ *)
(* Spans, sinks, recorders                                             *)
(* ------------------------------------------------------------------ *)

type span = {
  span_name : string;
  elapsed_ns : float;
  children : span list;
}

type report = {
  spans : span list;
  counters : (string * int) list;
  totals : (string * float) list;
  events : event list;
}

type sink = {
  on_open : depth:int -> string -> unit;
  on_close : depth:int -> string -> float -> unit;
  on_event : depth:int -> event -> unit;
}

let null_sink =
  {
    on_open = (fun ~depth:_ _ -> ());
    on_close = (fun ~depth:_ _ _ -> ());
    on_event = (fun ~depth:_ _ -> ());
  }

let text_sink ppf =
  let indent depth = String.make (2 * depth) ' ' in
  {
    on_open =
      (fun ~depth name -> Format.fprintf ppf "%s> %s@." (indent depth) name);
    on_close =
      (fun ~depth name ns ->
        Format.fprintf ppf "%s< %s  %.3f ms@." (indent depth) name (ns /. 1e6));
    on_event =
      (fun ~depth e -> Format.fprintf ppf "%s- %s@." (indent depth) (event_text e));
  }

type frame = {
  fname : string;
  start : float;
  mutable kids : span list;  (* reversed *)
}

type t = {
  sink : sink;
  mutable stack : frame list;  (* innermost first *)
  mutable top : span list;  (* reversed *)
  counters : (string, int) Hashtbl.t;
  float_totals : (string, float) Hashtbl.t;
  mutable events : event list;  (* reversed *)
}

let seeded_counters =
  [ "fusion.attempted"; "fusion.accepted"; "contraction.candidates";
    "contraction.performed"; "reduction.absorbed"; "dep.edges" ]
  @ List.map
      (fun r -> "fusion.rejected." ^ fusion_reason_name r)
      all_fusion_reasons

let create ?(sink = null_sink) () =
  let counters = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace counters k 0) seeded_counters;
  {
    sink;
    stack = [];
    top = [];
    counters;
    float_totals = Hashtbl.create 8;
    events = [];
  }

(* The installed recorder is *domain-local*: a recorder's span stack,
   counter tables and event list are plain mutable state, so sharing
   one recorder between domains would race.  Each domain instead sees
   its own current-recorder slot (fresh domains start at None, so
   instrumentation inside pool workers is a no-op unless the worker
   installs its own recorder), and a worker's finished report is
   folded into the parent with [merge] — in task order, so the merged
   report is deterministic regardless of domain scheduling. *)
let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get current_key

let enabled () = active () <> None

let run t f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

(* CLOCK_MONOTONIC via bechamel's stub: gettimeofday is subject to NTP
   steps, which made span durations occasionally negative. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let span name f =
  match active () with
  | None -> f ()
  | Some r ->
      let depth = List.length r.stack in
      r.sink.on_open ~depth name;
      let fr = { fname = name; start = now_ns (); kids = [] } in
      r.stack <- fr :: r.stack;
      let finish () =
        let elapsed = now_ns () -. fr.start in
        (match r.stack with
        | f' :: rest when f' == fr -> r.stack <- rest
        | _ -> () (* unbalanced: a nested span escaped; drop silently *));
        let s =
          { span_name = name; elapsed_ns = elapsed; children = List.rev fr.kids }
        in
        (match r.stack with
        | parent :: _ -> parent.kids <- s :: parent.kids
        | [] -> r.top <- s :: r.top);
        r.sink.on_close ~depth name elapsed
      in
      Fun.protect ~finally:finish f

let count name n =
  match active () with
  | None -> ()
  | Some r ->
      let cur = try Hashtbl.find r.counters name with Not_found -> 0 in
      Hashtbl.replace r.counters name (cur + n)

let total name x =
  match active () with
  | None -> ()
  | Some r ->
      let cur = try Hashtbl.find r.float_totals name with Not_found -> 0.0 in
      Hashtbl.replace r.float_totals name (cur +. x)

let event e =
  match active () with
  | None -> ()
  | Some r ->
      r.events <- e :: r.events;
      (match event_counter e with
      | Some name ->
          let cur = try Hashtbl.find r.counters name with Not_found -> 0 in
          Hashtbl.replace r.counters name (cur + 1)
      | None -> ());
      r.sink.on_event ~depth:(List.length r.stack) e

let report t =
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
                   |> List.sort compare in
  {
    spans = List.rev t.top;
    counters = sorted t.counters;
    totals = sorted t.float_totals;
    events = List.rev t.events;
  }

(* Fold a finished child recorder's report into [t]: counters and
   totals add, the child's top-level spans and events append after
   everything already recorded.  Pool drivers give each parallel task
   its own recorder and merge the task reports back *in task order*,
   so the combined report is identical whichever domain finished
   first. *)
let merge t (r : report) =
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find t.counters k with Not_found -> 0 in
      Hashtbl.replace t.counters k (cur + v))
    r.counters;
  List.iter
    (fun (k, v) ->
      let cur = try Hashtbl.find t.float_totals k with Not_found -> 0.0 in
      Hashtbl.replace t.float_totals k (cur +. v))
    r.totals;
  (* both lists are stored reversed *)
  t.top <- List.rev_append r.spans t.top;
  t.events <- List.rev_append r.events t.events

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let rec span_to_json s =
  Json.Obj
    [ ("name", Json.String s.span_name);
      ("ns", Json.Float s.elapsed_ns);
      ("children", Json.List (List.map span_to_json s.children)) ]

let report_to_json r =
  Json.Obj
    [ ("spans", Json.List (List.map span_to_json r.spans));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ("totals", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.totals)) ]

let pp_spans ppf spans =
  let rec go depth s =
    Format.fprintf ppf "%s%s  %.3f ms@." (String.make (2 * depth) ' ')
      s.span_name (s.elapsed_ns /. 1e6);
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) spans

let pp_report ppf r =
  pp_spans ppf r.spans;
  List.iter
    (fun (k, v) -> if v <> 0 then Format.fprintf ppf "%-40s %10d@." k v)
    r.counters;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-40s %10.0f@." k v)
    r.totals
