type severity = Error | Warning | Info

type t = {
  rule : string;
  severity : severity;
  loc : string option;
  message : string;
  hint : string option;
}

let make ?loc ?hint ~rule ~severity message =
  { rule; severity; loc; message; hint }

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = compare (severity_rank a) (severity_rank b)

let sort ds =
  List.stable_sort
    (fun a b ->
      match compare_severity a.severity b.severity with
      | 0 -> compare a.rule b.rule
      | c -> c)
    ds

let to_string d =
  let loc = match d.loc with Some l -> " " ^ l ^ ":" | None -> "" in
  let hint = match d.hint with Some h -> "\n    hint: " ^ h | None -> "" in
  Printf.sprintf "%s[%s]%s %s%s" (severity_name d.severity) d.rule loc
    d.message hint

let count ds sev = List.length (List.filter (fun d -> d.severity = sev) ds)

let render = function
  | [] -> ""
  | ds ->
      let lines = List.map to_string (sort ds) in
      let summary =
        Printf.sprintf "%d error(s), %d warning(s), %d info(s)"
          (count ds Error) (count ds Warning) (count ds Info)
      in
      String.concat "\n" (lines @ [ summary ])

let to_json d =
  let field k v = Printf.sprintf "\"%s\":\"%s\"" k (Strutil.json_escape v) in
  let opt k = function Some v -> [ field k v ] | None -> [] in
  "{"
  ^ String.concat ","
      ([ field "rule" d.rule; field "severity" (severity_name d.severity) ]
      @ opt "loc" d.loc
      @ [ field "message" d.message ]
      @ opt "hint" d.hint)
  ^ "}"

let render_json ds =
  Printf.sprintf "{\"diagnostics\":[%s],\"errors\":%d,\"warnings\":%d,\"infos\":%d}"
    (String.concat "," (List.map to_json (sort ds)))
    (count ds Error) (count ds Warning) (count ds Info)

let waive ~rules ds = List.filter (fun d -> not (List.mem d.rule rules)) ds

let promote_warnings =
  List.map (fun d ->
      if d.severity = Warning then { d with severity = Error } else d)

let errors ds = List.filter (fun d -> d.severity = Error) ds
let has_errors ds = errors ds <> []

let raise_if_errors ?(what = "check") ds =
  match errors ds with
  | [] -> ()
  | errs -> failwith (Printf.sprintf "%s failed:\n%s" what (render errs))
