(* The observability layer: JSON round-trips, diagnostics, recorder
   semantics, and the instrumentation the driver emits through it. *)

open Ir

let json = Alcotest.testable Obs.Json.pp ( = )

(* ---------------- Json ------------------------------------------- *)

let sample =
  Obs.Json.(
    Obj
      [
        ("name", String "tomcatv");
        ("ok", Bool true);
        ("none", Null);
        ("n", Int 42);
        ("pct", Float 81.25);
        ("weird", String "a\"b\\c\nd\te");
        ("xs", List [ Int 1; Int (-2); Float 0.5; String "" ]);
        ("nested", Obj [ ("deep", List [ Obj [ ("k", Int 7) ] ]) ]);
      ])

let test_json_roundtrip () =
  let s = Obs.Json.to_string sample in
  match Obs.Json.of_string s with
  | Ok v -> Alcotest.check json "parse (print x) = x" sample v
  | Error e -> Alcotest.failf "re-parse failed: %s on %s" e s

let test_json_accessors () =
  Alcotest.(check (option int))
    "member" (Some 42)
    (match Obs.Json.member "n" sample with
    | Some (Obs.Json.Int n) -> Some n
    | _ -> None);
  Alcotest.(check (option int))
    "find path" (Some 7)
    (match Obs.Json.find sample [ "nested"; "deep" ] with
    | Some (Obs.Json.List [ o ]) -> (
        match Obs.Json.member "k" o with
        | Some (Obs.Json.Int n) -> Some n
        | _ -> None)
    | _ -> None)

let nested d = String.make d '[' ^ String.make d ']'

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok v -> Alcotest.failf "accepted %S as %s" s (Obs.Json.to_string v)
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "nulll";
      "\"unterminated";
      "{} trailing";
      (* a \u escape takes exactly four hex digits *)
      {|{"op":"\uzzzz"}|};
      {|"\u00_1"|};
      {|"\u12"|};
      nested (Obs.Json.max_depth + 2);
      String.make 100_000 '[';
    ]

(* the nesting cap is not below what it promises, and \u escapes decode *)
let test_json_limits () =
  Alcotest.(check bool)
    "nesting up to the cap parses" true
    (Result.is_ok (Obs.Json.of_string (nested (Obs.Json.max_depth + 1))));
  Alcotest.check json "hex escapes decode" (Obs.Json.String "A\n")
    (Result.get_ok (Obs.Json.of_string {|"\u0041\u000A"|}))

(* ---------------- Codec ------------------------------------------ *)

type point = { x : int; y : int option; tags : string list }

let point =
  Obs.Codec.(
    obj
      (record (fun x y tags -> { x; y; tags })
      |+ field "x" int (fun p -> p.x)
      |+ opt "y" int (fun p -> p.y)
      |+ field "tags" (list string) (fun p -> p.tags) ~default:[]
           ~omit:(fun p -> p.tags = [])))

type shape = Dot | Box of point

let shape =
  Obs.Codec.(
    obj
      (variant "kind" string
         [
           ( "dot",
             case (record ())
               (function Dot -> Some () | _ -> None)
               (fun () -> Dot) );
           ( "box",
             case
               (record Fun.id |+ field "at" point Fun.id)
               (function Box p -> Some p | _ -> None)
               (fun p -> Box p) );
         ]))

let test_codec () =
  let enc c v = Obs.Json.to_string (Obs.Codec.encode c v) in
  let dec c s = Result.bind (Obs.Json.of_string s) (Obs.Codec.decode c) in
  Alcotest.(check string)
    "omitted members are not written" {|{"x":1}|}
    (enc point { x = 1; y = None; tags = [] });
  Alcotest.(check string)
    "members in description order"
    {|{"kind":"box","at":{"x":1,"y":2,"tags":["a"]}}|}
    (enc shape (Box { x = 1; y = Some 2; tags = [ "a" ] }));
  let ok c s v = Alcotest.(check bool) s true (dec c s = Ok v) in
  ok point {|{"x":1}|} { x = 1; y = None; tags = [] };
  ok point {|{"x":1,"y":null,"extra":[]}|} { x = 1; y = None; tags = [] };
  ok point {|{"tags":[],"x":3.0}|} { x = 3; y = None; tags = [] };
  ok shape {|{"kind":"dot"}|} Dot;
  let rejects c s =
    match dec c s with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  List.iter (rejects point)
    [
      {|{}|};
      {|{"x":1.5}|};
      {|{"x":1e19}|};
      {|{"x":-1e19}|};
      {|{"x":1,"tags":null}|};
      {|[]|};
    ];
  List.iter (rejects shape) [ {|{"kind":"circle"}|}; {|{"at":{"x":1}}|} ]

(* ---------------- Diagnostic ------------------------------------- *)

let test_diagnostic_render () =
  let d = Obs.Diagnostic.error ~phase:"cli" "no such file" in
  Alcotest.(check string)
    "no loc" "cli error: no such file"
    (Obs.Diagnostic.to_string d);
  let d =
    Obs.Diagnostic.errorf ~loc:("prog.zap", 3) ~phase:"parse" "bad %s" "token"
  in
  Alcotest.(check string)
    "with loc" "prog.zap:3: parse error: bad token"
    (Obs.Diagnostic.to_string d)

(* ---------------- clock ------------------------------------------ *)

(* now_ns is the monotonic clock: consecutive reads never go
   backwards, even across a wall-clock step (which gettimeofday-based
   timing was vulnerable to), and successive spans can never report
   negative elapsed time *)
let test_now_ns_monotonic () =
  let prev = ref (Obs.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Obs.now_ns () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %.0f -> %.0f" !prev t;
    prev := t
  done;
  let t0 = Obs.now_ns () in
  Unix.sleepf 0.001;
  let t1 = Obs.now_ns () in
  Alcotest.(check bool) "advances across a sleep" true (t1 -. t0 >= 0.5e6)

(* ---------------- recorder --------------------------------------- *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled outside run" false (Obs.enabled ());
  (* instrumentation without a recorder must be inert, not crash *)
  Obs.count "free.counter" 3;
  Alcotest.(check int) "span passes value through" 9
    (Obs.span "orphan" (fun () -> 9))

let test_span_nesting () =
  let t = Obs.create () in
  let v =
    Obs.run t (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "a" (fun () -> ());
            Obs.span "b" (fun () -> Obs.span "b1" (fun () -> ()));
            17))
  in
  Alcotest.(check int) "value" 17 v;
  let r = Obs.report t in
  let rec shape (s : Obs.span) =
    s.Obs.span_name ^ "("
    ^ String.concat "," (List.map shape s.Obs.children)
    ^ ")"
  in
  Alcotest.(check (list string))
    "span tree"
    [ "outer(a(),b(b1()))" ]
    (List.map shape r.Obs.spans);
  let rec all_nonneg (s : Obs.span) =
    s.Obs.elapsed_ns >= 0.0 && List.for_all all_nonneg s.Obs.children
  in
  Alcotest.(check bool) "timings >= 0" true (List.for_all all_nonneg r.Obs.spans)

let test_counters_and_events () =
  let t = Obs.create () in
  Obs.run t (fun () ->
      Obs.count "custom.hits" 2;
      Obs.count "custom.hits" 3;
      Obs.total "custom.ns" 1.5;
      Obs.event (Obs.Fusion_reject { array = Some "T"; reason = Obs.Nonnull_flow });
      Obs.event (Obs.Contraction_perform { array = "T"; shape = "scalar" }));
  let r = Obs.report t in
  let counter name = List.assoc_opt name r.Obs.counters in
  Alcotest.(check (option int)) "accumulates" (Some 5) (counter "custom.hits");
  Alcotest.(check (option int))
    "event bumps its counter" (Some 1)
    (counter "fusion.rejected.nonnull-flow");
  Alcotest.(check (option int))
    "seeded keys present at 0" (Some 0)
    (counter "fusion.rejected.cycle");
  Alcotest.(check (option (float 1e-9)))
    "float totals" (Some 1.5)
    (List.assoc_opt "custom.ns" r.Obs.totals);
  Alcotest.(check int) "events kept in order" 2 (List.length r.Obs.events)

let test_merge_reports () =
  let child k =
    let c = Obs.create () in
    Obs.run c (fun () ->
        Obs.count "merge.hits" k;
        Obs.total "merge.ns" (float_of_int k);
        Obs.span (Printf.sprintf "child%d" k) (fun () -> ()));
    Obs.report c
  in
  let r1 = child 1 and r2 = child 2 in
  let parent = Obs.create () in
  Obs.run parent (fun () -> Obs.count "merge.hits" 10);
  Obs.merge parent r1;
  Obs.merge parent r2;
  let r = Obs.report parent in
  Alcotest.(check (option int))
    "counters add" (Some 13)
    (List.assoc_opt "merge.hits" r.Obs.counters);
  Alcotest.(check (option (float 1e-9)))
    "totals add" (Some 3.0)
    (List.assoc_opt "merge.ns" r.Obs.totals);
  Alcotest.(check (list string))
    "spans appended in merge order" [ "child1"; "child2" ]
    (List.map (fun (s : Obs.span) -> s.Obs.span_name) r.Obs.spans)

(* recorders dynamically scope per domain: a freshly spawned domain
   starts disabled even while the spawner is inside Obs.run — pool
   workers must opt in with their own recorder, never race a shared
   one *)
let test_recorder_is_domain_local () =
  let t = Obs.create () in
  let parent_sees, child_sees =
    Obs.run t (fun () ->
        let d = Domain.spawn (fun () -> Obs.enabled ()) in
        let child = Domain.join d in
        (Obs.enabled (), child))
  in
  Alcotest.(check bool) "spawner enabled" true parent_sees;
  Alcotest.(check bool) "spawned domain disabled" false child_sees;
  Alcotest.(check bool) "active mirrors enabled" true (Obs.active () = None)

(* ---------------- result-based driver API ------------------------ *)

let region = Region.of_bounds [ (1, 4) ]

let valid_prog () =
  let bounds = Region.of_bounds [ (0, 5) ] in
  let arr name kind = { Prog.name; bounds; kind } in
  {
    Prog.name = "obsdemo";
    arrays = [ arr "A" Prog.User; arr "T" Prog.Compiler; arr "B" Prog.User ];
    scalars = [];
    body =
      [
        Prog.Astmt (Nstmt.make ~region ~lhs:"A" (Expr.Idx 1));
        Prog.Astmt
          (Nstmt.make ~region ~lhs:"T"
             Expr.(Binop (Mul, Ref ("A", Support.Vec.zero 1), Const 2.0)));
        Prog.Astmt
          (Nstmt.make ~region ~lhs:"B"
             Expr.(Binop (Add, Ref ("T", Support.Vec.zero 1), Const 1.0)));
      ];
    live_out = [ "B" ];
  }

let invalid_prog () =
  let p = valid_prog () in
  {
    p with
    Prog.body =
      p.Prog.body
      @ [ Prog.Astmt (Nstmt.make ~region ~lhs:"NOPE" (Expr.Const 1.0)) ];
  }

let test_compile_ok () =
  match Compilers.Driver.compile_opts (Compilers.Driver.opts Compilers.Driver.C2) (valid_prog ()) with
  | Ok c ->
      Alcotest.(check bool)
        "T contracted" true
        (List.mem_assoc "T" c.Compilers.Driver.contracted)
  | Error d -> Alcotest.failf "unexpected: %s" (Obs.Diagnostic.to_string d)

let test_compile_error_is_diagnostic () =
  match
    Compilers.Driver.compile_opts (Compilers.Driver.opts Compilers.Driver.C2) (invalid_prog ())
  with
  | Ok _ -> Alcotest.fail "invalid program compiled"
  | Error d ->
      Alcotest.(check string) "phase" "check" d.Obs.Diagnostic.phase;
      Alcotest.(check bool)
        "severity" true
        (d.Obs.Diagnostic.severity = Obs.Diagnostic.Error)

let test_compile_exn_raises () =
  match
    Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.C2) (invalid_prog ())
  with
  | _ -> Alcotest.fail "invalid program compiled"
  | exception Obs.Error d ->
      Alcotest.(check string) "phase" "check" d.Obs.Diagnostic.phase

(* ---------------- driver instrumentation ------------------------- *)

let test_compile_is_instrumented () =
  let t = Obs.create () in
  Obs.run t (fun () ->
      ignore (Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.C2) (valid_prog ())));
  let r = Obs.report t in
  (match r.Obs.spans with
  | [ c ] ->
      Alcotest.(check string) "root span" "compile" c.Obs.span_name;
      let kids = List.map (fun (s : Obs.span) -> s.Obs.span_name) c.Obs.children in
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " span present") true (List.mem k kids))
        [ "check"; "plan"; "scalarize" ]
  | spans -> Alcotest.failf "expected 1 root span, got %d" (List.length spans));
  let counter name = List.assoc_opt name r.Obs.counters in
  Alcotest.(check bool)
    "fusion attempts recorded" true
    (match counter "fusion.attempted" with Some n -> n > 0 | None -> false);
  (* A (dead user array) and T (compiler temp) both contract at c2 *)
  Alcotest.(check (option int)) "contraction performed" (Some 2)
    (counter "contraction.performed");
  Alcotest.(check bool)
    "dependence edges recorded" true
    (match counter "dep.edges" with Some n -> n > 0 | None -> false);
  (* the JSON rendering carries the same keys, and decodes to the
     report without its events *)
  let j = Obs.Codec.encode Obs.report_codec r in
  Alcotest.(check bool)
    "json has counters" true
    (Obs.Json.find j [ "counters"; "fusion.attempted" ] <> None);
  Alcotest.(check bool)
    "json has spans" true
    (match Obs.Json.member "spans" j with
    | Some (Obs.Json.List (_ :: _)) -> true
    | _ -> false);
  Alcotest.(check bool) "events recorded" true (r.Obs.events <> []);
  Alcotest.(check bool)
    "decodes what it encodes, without events" true
    (Obs.Codec.decode Obs.report_codec j = Ok { r with Obs.events = [] });
  let small =
    {
      Obs.spans =
        [
          {
            Obs.span_name = "a";
            elapsed_ns = 1.5;
            children =
              [ { Obs.span_name = "b"; elapsed_ns = 2.0; children = [] } ];
          };
        ];
      counters = [ ("x", 2) ];
      totals = [ ("y", 0.25) ];
      events = [ Obs.Note { name = "n"; value = "v" } ];
    }
  in
  Alcotest.(check string)
    "wire schema"
    {|{"spans":[{"name":"a","ns":1.5,"children":[{"name":"b","ns":2.0,"children":[]}]}],"counters":{"x":2},"totals":{"y":0.25}}|}
    (Obs.Json.to_string (Obs.Codec.encode Obs.report_codec small))

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "nesting cap and escapes" `Quick test_json_limits;
        Alcotest.test_case "codec" `Quick test_codec;
      ] );
    ( "obs.recorder",
      [
        Alcotest.test_case "now_ns is monotonic" `Quick test_now_ns_monotonic;
        Alcotest.test_case "diagnostic rendering" `Quick test_diagnostic_render;
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "counters and events" `Quick test_counters_and_events;
        Alcotest.test_case "merge accumulates reports" `Quick
          test_merge_reports;
        Alcotest.test_case "recorder is domain-local" `Quick
          test_recorder_is_domain_local;
      ] );
    ( "obs.driver",
      [
        Alcotest.test_case "compile ok" `Quick test_compile_ok;
        Alcotest.test_case "compile error diagnostic" `Quick
          test_compile_error_is_diagnostic;
        Alcotest.test_case "compile_exn raises" `Quick test_compile_exn_raises;
        Alcotest.test_case "compile emits spans + counters" `Quick
          test_compile_is_instrumented;
      ] );
  ]
