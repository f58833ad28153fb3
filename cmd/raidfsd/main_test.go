package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"raidii"
)

// call runs one command line through dispatch, with body as the bytes the
// connection holds after the line, and returns the reply dispatch wrote.
func call(st *serverState, line, body string) (string, error) {
	fields := strings.Fields(line)
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	err := st.dispatch(fields[0], fields[1:], bufio.NewReader(strings.NewReader(body)), w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	return out.String(), err
}

// TestDispatchRejectsMalformedExtents: a READ or WRITE whose offset or
// length is not a number, is negative, or (for a WRITE) is longer than the
// array gets an error reply and changes nothing; the daemon serves on.
// Every refused WRITE has a body ready, so one that slipped through would
// write it.
func TestDispatchRejectsMalformedExtents(t *testing.T) {
	srv, err := raidii.NewServer(raidii.Fig8Geometry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := newServerState(srv)
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := call(st, "WRITE /f 0 4", "abcd"); err != nil || !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("WRITE /f 0 4 = %q, %v", reply, err)
	}
	for _, line := range []string{
		"WRITE /f x 4", "WRITE /f 0 four", "WRITE /f -1 4", "WRITE /f 0 -4", "WRITE /f 1e3 4",
		"READ /f x 4", "READ /f 0 y", "READ /f -8 4", "READ /f 0 -4",
		fmt.Sprintf("WRITE /f 0 %d", st.capacity+1),
	} {
		if reply, err := call(st, line, "wxyz"); err == nil {
			t.Fatalf("%s = %q, want an error", line, reply)
		}
	}
	reply, err := call(st, "READ /f 0 8", "")
	if err != nil || !strings.HasPrefix(reply, "OK 4 ") || !strings.HasSuffix(reply, "\nabcd") {
		t.Fatalf("READ /f 0 8 after the refused commands = %q, %v; want the 4 bytes first written", reply, err)
	}
}

// TestRefusedWriteClosesTheConnection: a WRITE refused before its body is
// read gets exactly one ERR, and then the connection ends.  The daemon used
// to read the body as the next command line and answer it with a second ERR.
func TestRefusedWriteClosesTheConnection(t *testing.T) {
	srv, err := raidii.NewServer(raidii.Fig8Geometry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := newServerState(srv)
	if err != nil {
		t.Fatal(err)
	}
	client, conn := net.Pipe()
	defer client.Close() //lint:allow errdrop test teardown
	done := make(chan struct{})
	go func() {
		st.serve(conn)
		close(done)
	}()
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("WRITE /f 0 -4\nabcd\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(client)
	if err != nil || strings.Count(string(reply), "ERR ") != 1 || !strings.HasPrefix(string(reply), "ERR ") {
		t.Fatalf("reply %q, %v; want one ERR line and then EOF", reply, err)
	}
	<-done
}
