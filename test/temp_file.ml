(* Temporary files for the tests, written without the flush that
   rewriting an existing file costs. [Filename.temp_file] makes the file,
   and reopening it truncates it; on ext4, closing a truncated and then
   rewritten file waits for its data to reach the disk, about 50 ms a
   file. A file written once from its creation costs well under a
   millisecond. *)

(* [f path], where [path] names no file yet, inside a fresh temporary
   directory: for writers that open the path themselves. The file and
   the directory are removed afterwards. *)
let with_fresh_path f =
  let dir = Filename.temp_dir "dmm_test" "" in
  let path = Filename.concat dir "file" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir dir)
    (fun () -> f path)

(* [write oc] into a file made by [Filename.open_temp_file], then
   [f path]; the file is removed afterwards. *)
let with_written write f =
  let path, oc = Filename.open_temp_file ~mode:[ Open_binary ] "dmm_test" "" in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      write oc;
      close_out oc;
      f path)

let with_data data f = with_written (fun oc -> output_string oc data) f
let read path = In_channel.with_open_bin path In_channel.input_all
