(* Corruption fuzzing for the JSON documents: a real document is cut short
   at a seeded byte, or has one seeded byte replaced.  Reading the result
   must return [Ok] or [Error] and never raise, and an [Ok] value must
   write out as a document that reads back as the same value.  The seed is
   fixed and the case count bounded, so a run repeats exactly. *)

type corruption = Truncate of int | Set of int * char

let apply doc = function
  | Truncate n -> String.sub doc 0 n
  | Set (i, c) -> String.mapi (fun j x -> if j = i then c else x) doc

let print (doc, c) =
  match c with
  | Truncate n -> Printf.sprintf "document %d cut at byte %d" (Hashtbl.hash doc) n
  | Set (i, c) -> Printf.sprintf "document %d with byte %d set to %C" (Hashtbl.hash doc) i c

(* Half of the replacement bytes are ones JSON gives meaning to. *)
let gen docs =
  let open QCheck.Gen in
  let* doc = fun st -> oneofl (Lazy.force docs) st in
  let n = String.length doc in
  let byte = oneof [ char; oneofl (List.of_seq (String.to_seq "0123456789-+.eE\"\\{}[],:ntf ")) ] in
  let+ c =
    oneof
      [ map (fun i -> Truncate i) (int_bound n); map2 (fun i c -> Set (i, c)) (int_bound (n - 1)) byte ]
  in
  (doc, c)

(* [property ~name ~read ~write docs]: [read] parses a document, [write]
   renders a value read back; [docs] are made on first use. *)
let property ~name ~read ~write docs =
  let test =
    QCheck.Test.make ~name ~count:1000 (QCheck.make ~print (gen docs)) (fun (doc, c) ->
        match read (apply doc c) with
        | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
        | Error _ -> true
        | Ok v -> (
          match read (write v) with
          | Ok v' -> v = v' || QCheck.Test.fail_report "re-read a different value"
          | Error e -> QCheck.Test.fail_reportf "refused its own re-written value: %s" e
          | exception e -> QCheck.Test.fail_reportf "re-read raised %s" (Printexc.to_string e)))
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 40 |]) test
[@@lint.allow "determinism-random"]
