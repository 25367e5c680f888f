(* Quickstart: compile a small array program at every optimization
   level and watch temporaries disappear.

     dune exec examples/quickstart.exe                              *)

let source =
  {|
program quickstart;
config n := 64;
region R = [1..n, 1..n];
var A, B, Blur, Sharp : [0..n+1, 0..n+1];
scalar total := 0.0;
export B, total;
begin
  -- an input image
  [R] A := sin(0.2 * index1) * cos(0.3 * index2);

  -- a small pipeline with two user temporaries:
  -- Blur is consumed at offset 0 and will contract; Sharp likewise
  [R] Blur := 0.25 * (A@[0,-1] + A@[0,1] + A@[-1,0] + A@[1,0]);
  [R] Sharp := 2.0 * A - Blur;
  [R] B := max(0.0, min(1.0, Sharp));

  total := +<< R B;
end.
|}

let () =
  (* parse + elaborate: the frontend inserts compiler temporaries and
     produces the normalized array IR *)
  let prog = Zap.Elaborate.compile_string source in
  Format.printf "=== array-level IR ===@.%a@.@." Ir.Prog.pp prog;

  (* the reference semantics all compiled configurations must match *)
  let reference = Exec.Refinterp.run prog in
  let want = Exec.Refinterp.checksum reference in

  Format.printf "=== optimization levels ===@.";
  List.iter
    (fun level ->
      let c = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts level) prog in
      let r = Exec.Interp.run c.Compilers.Driver.code in
      let cnt = Exec.Interp.counters r in
      assert (Exec.Interp.checksum r = want);
      Format.printf
        "%-8s : %d arrays allocated, %7d bytes, %8d memory refs, ok@."
        (Compilers.Driver.level_name level)
        (Compilers.Driver.remaining_arrays c)
        (Exec.Interp.footprint_bytes c.Compilers.Driver.code)
        (cnt.Exec.Interp.loads + cnt.Exec.Interp.stores))
    Compilers.Driver.all_levels;

  (* what exactly was contracted at c2? *)
  let c2 = Compilers.Driver.compile_exn_opts (Compilers.Driver.opts Compilers.Driver.C2) prog in
  Format.printf "@.c2 contracted: %s@."
    (String.concat ", " (List.map fst c2.Compilers.Driver.contracted));

  (* and the C the native engine compiles: one function per fused
     cluster, a main that prints the digest and the cluster time *)
  Format.printf "@.=== generated C (c2) ===@.%a" Sir.Emit_c.emit
    c2.Compilers.Driver.code
