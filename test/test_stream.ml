(* Streaming parser, flat representation, binary format, and record↔flat
   parity: the tokenizer must be invariant under chunking (every token
   boundary exercised), and both parsers must agree byte-for-byte on
   results AND error messages. *)

module I = Ccs.Instance
module F = Ccs.Instance.Flat
module Io = Ccs.Io
module G = Ccs.Generator

let flat_equal a b =
  F.n a = F.n b && F.m a = F.m b && F.c a = F.c b
  && F.num_classes a = F.num_classes b
  &&
  let ok = ref true in
  for i = 0 to F.n a - 1 do
    if F.job_p a i <> F.job_p b i || F.job_cls a i <> F.job_cls b i then ok := false
  done;
  !ok

(* results agree exactly: same Ok instance or same Error string *)
let parse_agree r1 r2 =
  match (r1, r2) with
  | Ok a, Ok b -> flat_equal a b
  | Error e1, Error e2 -> String.equal e1 e2
  | _ -> false

let canonical = "ccs 1\nmachines 31\nslots 2\njob 128 10\njob 7 3\njob 3000 10\n"

let test_chunk_boundaries () =
  let want =
    match Io.of_string_flat canonical with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun chunk ->
      match Io.of_string_flat ~chunk canonical with
      | Ok f ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d equals default" chunk)
            true (flat_equal want f)
      | Error e -> Alcotest.fail (Printf.sprintf "chunk %d: %s" chunk e))
    [ 1; 2; 3; 5; 7; 13; 64 ]

let test_crlf_tab_runs () =
  (* runs of every separator the old parser treated as blank: space, tab,
     CR (also mid-line), form feed — plus comments *)
  let s = "ccs \t\t 1\r\nmachines\t\t31\r\r\nslots \012 2\n# c\r\njob\t128 \t 10\r\n" in
  (match Io.of_string_flat ~chunk:3 s with
  | Ok f ->
      Alcotest.(check int) "n" 1 (F.n f);
      Alcotest.(check int) "m" 31 (F.m f);
      Alcotest.(check int) "p" 128 (F.job_p f 0)
  | Error e -> Alcotest.fail e);
  (* a blank-only line is skipped without consuming a job *)
  match Io.of_string_flat "ccs 1\nmachines 2\nslots 1\n \t \njob 4 0\n" with
  | Ok f -> Alcotest.(check int) "blank line skipped" 1 (F.n f)
  | Error e -> Alcotest.fail e

let test_truncated_final_record () =
  (* missing the class field on the last line, no trailing newline: the
     finish flush must still dispatch (and reject) the partial record —
     two tokens fall through to the header dispatch, like the old parser *)
  (match Io.of_string_flat "ccs 1\nmachines 2\nslots 2\njob 3" with
  | Error e -> Alcotest.(check string) "truncated job" "line 4: unrecognized line" e
  | Ok _ -> Alcotest.fail "truncated job line accepted");
  (match Io.of_string_flat "ccs 1\nmachines 2\nslots 2\njob 3 x" with
  | Error e -> Alcotest.(check string) "bad class token" "line 4: bad job line" e
  | Ok _ -> Alcotest.fail "non-numeric class accepted");
  (* a complete final record without a trailing newline is fine *)
  (match Io.of_string_flat "ccs 1\nmachines 2\nslots 2\njob 3 1" with
  | Ok f -> Alcotest.(check int) "no trailing newline" 1 (F.n f)
  | Error e -> Alcotest.fail e);
  (* header only: the end checks fire in declaration order *)
  match Io.of_string_flat "ccs 1\nmachines 2\nslots 2\n" with
  | Error e -> Alcotest.(check string) "no jobs" "no jobs" e
  | Ok _ -> Alcotest.fail "empty job list accepted"

let test_huge_processing_times () =
  let p12 = 1_000_000_000_000 in
  let s = Printf.sprintf "ccs 1\nmachines 2\nslots 2\njob %d 0\njob %d 1\n" p12 (p12 - 1) in
  match Io.of_string_flat ~chunk:7 s with
  | Ok f ->
      Alcotest.(check int) "p exact at 10^12" p12 (F.job_p f 0);
      Alcotest.(check int) "total load exact" (p12 + (p12 - 1)) (F.total_load f);
      Alcotest.(check int) "pmax" p12 (F.pmax f)
  | Error e -> Alcotest.fail e

let test_chunk_validation () =
  match Io.of_string_flat ~chunk:0 canonical with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk 0 accepted"

let with_temp f =
  let path = Filename.temp_file "ccs_test_stream" ".ccsb" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_binary_roundtrip () =
  let fl =
    match Io.of_string_flat canonical with Ok f -> f | Error e -> Alcotest.fail e
  in
  with_temp (fun path ->
      Io.save_flat path fl;
      match Io.load_flat path with
      | Ok f -> Alcotest.(check bool) "binary roundtrip" true (flat_equal fl f)
      | Error e -> Alcotest.fail e)

let test_binary_errors () =
  (* a ccsb1 magic followed by garbage must report, not crash; and a text
     file through load_flat must fall back to the text parser *)
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "ccsb1\n\001\002");
      (match Io.load_flat path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated binary accepted");
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc canonical);
      (match Io.load_flat path with
      | Ok f -> Alcotest.(check int) "text via load_flat" 3 (F.n f)
      | Error e -> Alcotest.fail e));
  match Io.load_flat "/nonexistent/ccs_test_stream.ccsb" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonexistent path accepted"

(* near-grammar fragments: chunked re-parsing must agree with the default
   on both accepts and rejects, with identical error strings *)
let grammar_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 14)
         (oneofl
            [ "ccs 1\n"; "ccs"; "machines "; "machines 3\n"; "slots 2\n"; "slots ";
              "job "; "job 5 0\n"; "job 5\n"; "12 3"; "#c\n"; "\r\n"; "\t"; " ";
              "\n"; "9"; "0 "; "1000000000000 "; "x"; "job 1000000000000 1\n" ])))

let prop_chunking_invariant =
  QCheck.Test.make ~name:"chunked parses agree with default (incl. errors)"
    ~count:500
    (QCheck.make grammar_gen ~print:(fun s -> s))
    (fun s ->
      let d = Io.of_string_flat s in
      parse_agree d (Io.of_string_flat ~chunk:1 s)
      && parse_agree d (Io.of_string_flat ~chunk:3 s))

let prop_record_parser_agrees =
  (* of_string and of_string_flat share one lexer; the record result must
     be the converted flat result, and rejects must carry the same text *)
  QCheck.Test.make ~name:"of_string agrees with of_string_flat" ~count:500
    (QCheck.make grammar_gen ~print:(fun s -> s))
    (fun s ->
      match (Io.of_string s, Io.of_string_flat s) with
      | Ok inst, Ok f -> flat_equal (I.to_flat inst) f
      | Error e1, Error e2 -> String.equal e1 e2
      | _ -> false)

let spec_of_seed seed =
  {
    G.n = 1 + (seed mod 60);
    classes = 1 + (seed mod 5);
    machines = 2 + (seed mod 6);
    slots = 1 + (seed mod 3);
    p_lo = 1;
    p_hi = 50;
    family =
      (match seed mod 4 with
      | 0 -> G.Uniform
      | 1 -> Zipf
      | 2 -> Heavy_classes
      | _ -> Large_jobs);
  }

let prop_flat_record_roundtrip =
  QCheck.Test.make ~name:"to_flat/of_flat exact inverses" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = G.generate ~seed (spec_of_seed seed) in
      let fl = I.to_flat inst in
      let inst' = I.of_flat fl in
      I.n inst = I.n inst' && I.m inst = I.m inst' && I.c inst = I.c inst'
      && I.class_load inst = I.class_load inst'
      && List.for_all
           (fun j -> I.job inst j = I.job inst' j)
           (List.init (I.n inst) Fun.id)
      && flat_equal fl (I.to_flat inst'))

let prop_generate_flat_matches =
  QCheck.Test.make ~name:"generate_flat = to_flat . generate" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let spec = spec_of_seed seed in
      flat_equal (G.generate_flat ~seed spec) (I.to_flat (G.generate ~seed spec)))

let prop_text_roundtrip_flat =
  QCheck.Test.make ~name:"to_string_flat streams back identically" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let fl = G.generate_flat ~seed (spec_of_seed seed) in
      match Io.of_string_flat ~chunk:11 (Io.to_string_flat fl) with
      | Ok f -> flat_equal fl f
      | Error _ -> false)

let prop_binary_roundtrip_random =
  QCheck.Test.make ~name:"save_flat/load_flat roundtrip" ~count:50
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let fl = G.generate_flat ~seed (spec_of_seed seed) in
      with_temp (fun path ->
          Io.save_flat path fl;
          match Io.load_flat path with Ok f -> flat_equal fl f | Error _ -> false))

let () =
  Alcotest.run "stream"
    [ ( "tokenizer",
        [ Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "CRLF / tab runs" `Quick test_crlf_tab_runs;
          Alcotest.test_case "truncated final record" `Quick test_truncated_final_record;
          Alcotest.test_case "10^12 processing times" `Quick test_huge_processing_times;
          Alcotest.test_case "chunk validation" `Quick test_chunk_validation ] );
      ( "binary",
        [ Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "errors + text fallback" `Quick test_binary_errors ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_chunking_invariant; prop_record_parser_agrees;
            prop_flat_record_roundtrip; prop_generate_flat_matches;
            prop_text_roundtrip_flat; prop_binary_roundtrip_random ] ) ]
