(* The host and build a results file was measured on. Everything is read
   from files (no subprocess): the commit from .git when the working
   directory is a git checkout, "unknown" otherwise. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let lines path =
  match read_file path with Some s -> String.split_on_char '\n' s | None -> []

let field_value line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let cpu_model () =
  match
    List.find_opt (String.starts_with ~prefix:"model name") (lines "/proc/cpuinfo")
  with
  | Some l -> field_value l
  | None -> "unknown"

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match
    List.find_opt
      (String.starts_with ~prefix:"Cpus_allowed_list")
      (lines "/proc/self/status")
  with
  | None -> 0
  | Some l ->
      String.split_on_char ',' (field_value l)
      |> List.fold_left
           (fun acc range ->
             match String.split_on_char '-' range with
             | [ a ] when int_of_string_opt a <> None -> acc + 1
             | [ a; b ] -> (
                 match (int_of_string_opt a, int_of_string_opt b) with
                 | Some a, Some b -> acc + (b - a + 1)
                 | _ -> acc)
             | _ -> acc)
           0

let git_commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = trim head in
      match String.starts_with ~prefix:"ref: " head with
      | false -> head
      | true -> (
          let ref_ = String.sub head 5 (String.length head - 5) in
          match read_file (Filename.concat ".git" ref_) with
          | Some c -> trim c
          | None -> (
              let packed =
                List.find_map
                  (fun l ->
                    match String.split_on_char ' ' (trim l) with
                    | [ sha; r ] when r = ref_ -> Some sha
                    | _ -> None)
                  (lines ".git/packed-refs")
              in
              match packed with Some c -> c | None -> "unknown")))

let to_json ~pstream_run =
  Obs.Json.Obj
    [
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("recommended_domain_count", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("nproc", Obs.Json.Int (nproc ()));
      ("cpu_model", Obs.Json.String (cpu_model ()));
      ("git_commit", Obs.Json.String (git_commit ()));
      ("pstream_run", Obs.Json.String pstream_run);
    ]
