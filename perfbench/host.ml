(* Host provenance written into every result: two figures are
   comparable only when these match.  Everything is read from the
   process itself or from the checkout it runs in. *)

let nproc () = Domain.recommended_domain_count ()

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let trim_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* The commit checked out, read from .git without running git; "none"
   outside a git work tree (an exported checkout). *)
let git_rev () =
  let head = Filename.concat ".git" "HEAD" in
  if not (Sys.file_exists head) then "none"
  else
    let h = String.trim (read_file head) in
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length h > pl && String.sub h 0 pl = prefix then begin
      let ref_name = String.sub h pl (String.length h - pl) in
      let loose = Filename.concat ".git" ref_name in
      if Sys.file_exists loose then String.trim (read_file loose)
      else
        let packed = Filename.concat ".git" "packed-refs" in
        let found =
          if Sys.file_exists packed then
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ sha; r ] when r = ref_name -> Some sha
                | _ -> None)
              (String.split_on_char '\n' (read_file packed))
          else None
        in
        Option.value found ~default:"unknown"
    end
    else h

(* Digest of the sources the benchmark builds from, so an exported
   checkout (no .git) still identifies its code. *)
let source_digest () =
  let rec walk acc path =
    if Sys.is_directory path then
      let base = Filename.basename path in
      if base <> "." && (base.[0] = '_' || base.[0] = '.') then acc
      else
        Array.fold_left
          (fun acc e -> walk acc (Filename.concat path e))
          acc
          (let es = Sys.readdir path in
           Array.sort compare es;
           es)
    else path :: acc
  in
  let files =
    List.concat_map
      (fun root -> if Sys.file_exists root then walk [] root else [])
      [ "dune-project"; "lib"; "bin"; "programs"; "perfbench" ]
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string b f;
      Buffer.add_string b (Digest.to_hex (Digest.file f)))
    (List.sort compare files);
  Digest.to_hex (Digest.string (Buffer.contents b))

let provenance ~workload ~seed ~trace =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String workload);
      ("seed", Obs.Json.Int seed);
      ("trace", Obs.Json.Bool trace);
      ("nproc", Obs.Json.Int (nproc ()));
      ("cc", Obs.Json.String (trim_line (Native.Toolchain.describe ())));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("git_rev", Obs.Json.String (git_rev ()));
      ("source_digest", Obs.Json.String (source_digest ()));
    ]
