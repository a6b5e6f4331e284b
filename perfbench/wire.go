package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// wireClient speaks the server's framed protocol itself — "REQ <n>\n" out,
// "CHUNK <n>\n"* then "OK <n>\n" or "ERR <n>\n" back — so it can time
// the first frame and count frames, which the library client hides.
type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	body bytes.Buffer // reused across responses
}

// reply is one response as the client observed it. body aliases the
// client's buffer and is valid until the next request.
type reply struct {
	body       []byte
	chunks     int
	bytes      int // payload bytes of every frame
	firstFrame time.Duration
	total      time.Duration // request write to the end of the final frame
	remoteErr  string        // payload of an ERR frame
}

func dial(addr string) (*wireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}, nil
}

func (c *wireClient) close() error { return c.conn.Close() }

// do sends one request and reads its whole response.
func (c *wireClient) do(req string) (reply, error) {
	var rp reply
	c.body.Reset()
	start := time.Now()
	if _, err := fmt.Fprintf(c.w, "REQ %d\n%s", len(req), req); err != nil {
		return rp, err
	}
	if err := c.w.Flush(); err != nil {
		return rp, err
	}
	for {
		header, err := c.r.ReadSlice('\n')
		if err != nil {
			return rp, fmt.Errorf("read frame header: %w", err)
		}
		if rp.firstFrame == 0 {
			rp.firstFrame = time.Since(start)
		}
		verb, size, ok := bytes.Cut(bytes.TrimSuffix(header, []byte("\n")), []byte(" "))
		if !ok {
			return rp, fmt.Errorf("bad frame header %q", header)
		}
		n, err := strconv.Atoi(string(size))
		if err != nil || n < 0 {
			return rp, fmt.Errorf("bad frame size %q", size)
		}
		verbS := string(verb)
		rp.bytes += n
		if verbS == "ERR" {
			msg := make([]byte, n)
			if _, err := io.ReadFull(c.r, msg); err != nil {
				return rp, err
			}
			rp.remoteErr = string(msg)
			rp.total = time.Since(start)
			return rp, nil
		}
		if _, err := io.CopyN(&c.body, c.r, int64(n)); err != nil {
			return rp, err
		}
		switch verbS {
		case "CHUNK":
			rp.chunks++
		case "OK":
			rp.total = time.Since(start)
			rp.body = c.body.Bytes()
			return rp, nil
		default:
			return rp, fmt.Errorf("unknown response verb %q", verbS)
		}
	}
}
