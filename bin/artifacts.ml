(* Artifact files: reading, writing, and the one schema table behind
   [experiments validate]. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  let parent = Filename.dirname path in
  if parent <> "" && parent <> "." then Obs.Report.mkdir_p parent;
  Out_channel.with_open_text path (fun oc ->
      output_string oc s;
      output_char oc '\n')

(* Read, parse and decode one artifact; errors name the file. *)
let read path of_json =
  match Obs.Json.parse (read_file path) with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
  | Ok j ->
    Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) (of_json j)

(* A Chrome trace export carries no schema tag; it is named by this key
   and recognised by its traceEvents list. *)
let chrome_trace = "chrome-trace"

let decodes of_json _contents j = Result.map ignore (of_json j)

let checks validate _contents j = validate j

(* Every artifact schema the repository writes, with the reader that
   checks it.  A reader gets the raw file contents and its parsed JSON. *)
let schemas : (string * (string -> Obs.Json.t -> (unit, string) result)) list
    =
  [
    (Obs.Report.schema_version, checks Obs.Report.validate);
    (Obs.Profile.schema_version, checks Obs.Profile.validate);
    (* A one-line trace (header only) parses as a single document. *)
    ( Obs.Tracefile.schema_version,
      fun contents _ -> Obs.Tracefile.validate contents );
    (chrome_trace, checks Obs.Chrome_trace.validate);
    (Mc.Checker.cex_schema, decodes Mc.Checker.cex_of_json);
    (Mc.Checker.guide_schema, decodes Mc.Checker.guide_of_json);
    (Chaos.Campaign.repro_schema, decodes Chaos.Campaign.repro_of_json);
    (Chaos.Recovery.schema, decodes Chaos.Recovery.of_json);
    (Shard.Tier.schema, decodes Shard.Tier.of_json);
    (Lint.Report.schema_version, checks Lint.Report.validate);
    (Lint.Report.baseline_schema_version, checks Lint.Report.validate_baseline);
    (Lint.Report.domains_schema_version, checks Lint.Report.validate_domains);
  ]

(* Check one artifact's contents against the schema it names; returns
   that schema. *)
let validate contents =
  match Obs.Json.parse contents with
  | Error _ ->
    (* Not a single JSON document: try the JSONL trace schema. *)
    Result.map
      (fun () -> Obs.Tracefile.schema_version)
      (Obs.Tracefile.validate contents)
  | Ok j -> (
    let schema =
      match (Obs.Json.member "schema" j, Obs.Json.member "traceEvents" j) with
      | Some (Obs.Json.Str s), _ -> Ok s
      | Some _, _ -> Error "schema: expected a string"
      | None, Some _ -> Ok chrome_trace
      | None, None -> Error "no schema field and no traceEvents"
    in
    match schema with
    | Error _ as e -> e
    | Ok schema -> (
      match List.assoc_opt schema schemas with
      | None -> Error (Printf.sprintf "unknown schema %S" schema)
      | Some check -> Result.map (fun () -> schema) (check contents j)))
