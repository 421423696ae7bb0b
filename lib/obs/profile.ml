let schema_version = "stabreg/mc-profile/v1"

type t = {
  kind : string;
  every : int;
  clock : unit -> float;
  t0 : float;
  mutable last_tick : int;
  mutable samples_rev : Json.t list;
  mutable sections_rev : (string * Json.t) list;
}

let create ?(every = 1000) ?(clock = fun () -> 0.) ~kind () =
  if every <= 0 then invalid_arg "Profile.create: every must be positive";
  {
    kind;
    every;
    clock;
    t0 = clock ();
    last_tick = min_int;
    samples_rev = [];
    sections_rev = [];
  }

let due t ~tick = t.last_tick = min_int || tick - t.last_tick >= t.every

let record t ~tick fields =
  t.last_tick <- tick;
  t.samples_rev <-
    Json.Obj
      (("tick", Json.Int tick)
      :: ("elapsed_s", Json.Float (t.clock () -. t.t0))
      :: fields)
    :: t.samples_rev

let sample ?(force = false) t ~tick fields =
  if force || due t ~tick then record t ~tick (fields ())

let add_section t name v = t.sections_rev <- (name, v) :: t.sections_rev

let samples t = List.length t.samples_rev

let sample_jsons t = List.rev t.samples_rev

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("kind", Json.Str t.kind);
      ("every", Json.Int t.every);
      ("samples", Json.List (List.rev t.samples_rev));
      ("sections", Json.Obj (List.rev t.sections_rev));
    ]

(* --- validation ------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field ctx key j =
  match Json.member key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" ctx key)

let validate j =
  let* schema = field "profile" "schema" j in
  let* () =
    match Json.to_string_opt schema with
    | Some s when String.equal s schema_version -> Ok ()
    | Some s ->
      Error
        (Printf.sprintf "profile: schema mismatch: got %S, want %S" s
           schema_version)
    | None -> Error "profile.schema: expected a string"
  in
  let* kind = field "profile" "kind" j in
  let* () =
    match Json.to_string_opt kind with
    | Some _ -> Ok ()
    | None -> Error "profile.kind: expected a string"
  in
  let* every = field "profile" "every" j in
  let* () =
    match Json.to_int_opt every with
    | Some e when e > 0 -> Ok ()
    | Some _ -> Error "profile.every: expected a positive integer"
    | None -> Error "profile.every: expected an integer"
  in
  let* samples = field "profile" "samples" j in
  let* sample_list =
    match Json.to_list_opt samples with
    | Some l -> Ok l
    | None -> Error "profile.samples: expected a list"
  in
  let check_sample i s =
    let ctx = Printf.sprintf "profile.samples[%d]" i in
    let* _ =
      match Json.to_obj_opt s with
      | Some fields -> Ok fields
      | None -> Error (ctx ^ ": expected an object")
    in
    let* tick = field ctx "tick" s in
    let* () =
      match Json.to_int_opt tick with
      | Some _ -> Ok ()
      | None -> Error (ctx ^ ".tick: expected an integer")
    in
    let* elapsed = field ctx "elapsed_s" s in
    match Json.to_float_opt elapsed with
    | Some _ -> Ok ()
    | None -> Error (ctx ^ ".elapsed_s: expected a number")
  in
  let rec go i = function
    | [] -> Ok ()
    | s :: rest ->
      let* () = check_sample i s in
      go (i + 1) rest
  in
  let* () = go 0 sample_list in
  let* sections = field "profile" "sections" j in
  match Json.to_obj_opt sections with
  | Some _ -> Ok ()
  | None -> Error "profile.sections: expected an object"

let write ~dir ~name t =
  Report.mkdir_p dir;
  let path = Filename.concat dir (name ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json t));
  output_char oc '\n';
  close_out oc;
  path
