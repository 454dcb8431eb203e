(* dream-lint: AST-based static analysis for the DREAM tree.

     dune exec dream-lint -- lib bin bench test examples perfbench
     dune exec dream-lint -- --format json lib > report.json
     dune exec dream-lint -- --rules determinism-random,float-equality lib
     dune exec dream-lint -- --baseline lint/BASELINE.json lib bin bench test examples perfbench
     dune exec dream-lint -- --baseline lint/BASELINE.json --update-baseline \
       lib bin bench test examples perfbench

   Walks the given paths for .ml files (each with its .mli, when there is
   one), runs every per-file rule (or the --rules subset) over each
   parsetree and the three interprocedural passes (hot-path-alloc over
   the [@hot] call-graph closure, domain-safety over toplevel mutable
   state, and test-only-export over the lib/ interfaces), puts every
   finding through one suppression pass per file, and prints what is
   left.  test-only-export counts the uses in the paths given, so it
   needs the whole tree.

   With --baseline the committed findings baseline gates as a ratchet:
   only findings *beyond* the per-(rule, file) baseline counts fail the
   run, --update-baseline rewrites the file (which can only shrink once
   it exists), and --snapshot-dir emits the current per-rule debt as
   BENCH_lint_debt.json for dream-bench trend.

   Exit codes: 0 when clean (or fully baselined), 1 when there are new
   findings (or the ratchet refuses a growing update), 124 on usage
   errors.  Suppress a single site with [@lint.allow "rule-id"]; two rules
   take a reason instead of the id: [@alloc.allow "reason"] is
   hot-path-alloc's only allow, and test-only-export takes
   [@@lint.allow "oracle hook: test/<file>"] or "test fake: test/<file>".
   Unused and malformed allows are themselves findings, so the allowlist
   can only shrink. *)

module Baseline = Dream_lint.Baseline
module Engine = Dream_lint.Engine
module Finding = Dream_lint.Finding
module Report = Dream_lint.Report
module Rules = Dream_lint.Rules

let ( let* ) = Result.bind

let resolve_rules = function
  | [] -> Ok Rules.all
  | ids ->
    List.fold_left
      (fun acc id ->
        let* rules = acc in
        match Rules.find id with
        | Some rule -> Ok (rule :: rules)
        | None ->
          Error
            (Printf.sprintf "unknown rule %S (available: %s)" id
               (String.concat ", " Rules.ids)))
      (Ok []) ids
    |> Result.map List.rev

let check_paths paths =
  match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | [] -> Ok ()
  | missing -> Error ("no such path: " ^ String.concat ", " missing)

let write_snapshot snapshot_dir findings =
  match snapshot_dir with
  | None -> Ok ()
  | Some dir -> (
    match Dream_obs.Bench_snapshot.write (Baseline.debt_snapshot findings) ~dir with
    | Ok path ->
      Printf.eprintf "wrote %s\n%!" path;
      Ok ()
    | Error e -> Error e)

(* The ratchet gate: split findings into baselined and new.  "New" is
   every finding under a (rule, file) key whose count exceeds its
   baseline entry — counts, not line numbers, so unrelated edits moving a
   finding within its file never trip the gate. *)
let gate ~baseline findings =
  let current = Baseline.of_findings findings in
  let d = Baseline.diff ~baseline ~current in
  let fresh_key (f : Finding.t) =
    List.exists
      (fun (g : Baseline.delta) ->
        g.Baseline.d_rule = f.Finding.rule && g.Baseline.d_file = f.Finding.file)
      d.Baseline.fresh
  in
  let fresh_findings = List.filter fresh_key findings in
  let new_count =
    List.fold_left
      (fun acc (g : Baseline.delta) -> acc + g.Baseline.d_current - g.Baseline.d_baseline)
      0 d.Baseline.fresh
  in
  (d, fresh_findings, new_count, List.length findings - new_count)

let update_baseline_file ~path ~findings =
  let old_ = if Sys.file_exists path then Some (Baseline.read path) else None in
  let* old_ =
    match old_ with
    | None -> Ok None
    | Some (Ok b) -> Ok (Some b)
    | Some (Error e) -> Error e
  in
  match Baseline.update ~old_ ~current:(Baseline.of_findings findings) with
  | Ok fresh ->
    let* () = Baseline.write fresh ~path in
    Printf.eprintf "baseline %s: %d entries covering %d findings\n%!" path
      (List.length fresh)
      (List.fold_left (fun acc e -> acc + e.Baseline.b_count) 0 fresh);
    Ok 0
  | Error msg ->
    (* Ratchet refusal is a failed run (1), not a usage error (124). *)
    Printf.eprintf "%s\n%!" msg;
    Ok 1

let run format rule_ids baseline_path update_baseline snapshot_dir paths =
  let* rules = resolve_rules rule_ids in
  let* () =
    if update_baseline && baseline_path = None then
      Error "--update-baseline needs --baseline FILE"
    else Ok ()
  in
  let paths =
    if paths = [] then [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ] else paths
  in
  let* () = check_paths paths in
  let files = List.concat_map Engine.ml_files_under paths in
  let* () = if files = [] then Error "no .ml files under the given paths" else Ok () in
  let findings = Engine.lint_files ~rules files in
  let* () = write_snapshot snapshot_dir findings in
  let ppf = Format.std_formatter in
  match baseline_path with
  | None ->
    (match format with
    | `Text -> Report.text ppf findings
    | `Json -> Report.json ppf findings);
    Ok (if findings = [] then 0 else 1)
  | Some path when update_baseline -> update_baseline_file ~path ~findings
  | Some path ->
    let* baseline =
      if Sys.file_exists path then Baseline.read path
      else
        Error
          (Printf.sprintf "no baseline at %s; create one with --update-baseline" path)
    in
    let d, fresh_findings, new_count, baselined = gate ~baseline findings in
    (match format with
    | `Text ->
      Report.text ~baseline:(baselined, new_count) ppf fresh_findings;
      List.iter
        (fun (g : Baseline.delta) ->
          Format.fprintf ppf
            "stale baseline entry: %s %s (%d baselined, %d found); shrink it with \
             --update-baseline@."
            g.Baseline.d_rule g.Baseline.d_file g.Baseline.d_baseline g.Baseline.d_current)
        d.Baseline.improved
    | `Json -> Report.json ~baseline:(baselined, new_count) ppf fresh_findings);
    Ok (if d.Baseline.fresh = [] then 0 else 1)

open Cmdliner

let format =
  let parse = function
    | "text" -> Ok `Text
    | "json" -> Ok `Json
    | other -> Error (`Msg (Printf.sprintf "unknown format %S (text | json)" other))
  in
  let print ppf f = Format.pp_print_string ppf (match f with `Text -> "text" | `Json -> "json") in
  Arg.(
    value
    & opt (conv (parse, print)) `Text
    & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Report format: $(b,text) or $(b,json).")

let rule_ids =
  Arg.(
    value
    & opt (list string) []
    & info [ "rules"; "r" ] ~docv:"IDS"
        ~doc:"Comma-separated rule ids to run (default: all rules).")

let baseline_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline"; "b" ] ~docv:"FILE"
        ~doc:
          "Committed findings baseline (ratchet): only findings beyond the per-(rule, \
           file) counts in $(docv) fail the run.")

let update_baseline =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:
          "Rewrite $(b,--baseline) $(i,FILE) from the current findings.  Once the file \
           exists it can only shrink: a grown count is refused (exit 1) — fix the new \
           finding or justify it at the site instead.")

let snapshot_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:
          "Also write the per-rule finding counts as $(b,BENCH_lint_debt.json) under \
           $(docv), for $(b,dream-bench) $(b,trend).")

let paths =
  Arg.(
    value
    & pos_all string []
    & info [] ~docv:"PATHS"
        ~doc:"Files or directories to lint (default: lib bin bench test examples perfbench).")

let cmd =
  let doc = "enforce determinism, totality and observability invariants on the DREAM tree" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses every .ml file under $(i,PATHS) with the OCaml compiler front end, runs \
         syntactic rules over each parsetree, then the interprocedural passes over the \
         whole set: $(b,hot-path-alloc) classifies allocation sites reachable from \
         [@hot] entry points through the intra-repo call graph, $(b,domain-safety) \
         inventories toplevel mutable state ahead of multi-domain sharding, and \
         $(b,test-only-export) flags lib/ interface values only tests use.  Exits 0 \
         when clean and 1 when there are findings, so it can gate CI; with \
         $(b,--baseline) only findings beyond the committed ratchet fail.";
      `S "RULES";
    ]
    @ List.map
        (fun (r : Rules.t) -> `P (Printf.sprintf "$(b,%s): %s" r.Rules.id r.Rules.doc))
        Rules.all
    @ [
        `P
          (Printf.sprintf
             "$(b,%s): a site-level [@lint.allow] or [@alloc.allow] that suppresses \
              nothing; $(b,%s): a file that does not parse."
             Engine.unused_suppression_rule Engine.parse_error_rule);
      ]
  in
  Cmd.v
    (Cmd.info "dream-lint" ~doc ~man)
    (Term.term_result' ~usage:false
       Term.(
         const run $ format $ rule_ids $ baseline_path $ update_baseline $ snapshot_dir
         $ paths))

let () = exit (Cmd.eval' cmd)
