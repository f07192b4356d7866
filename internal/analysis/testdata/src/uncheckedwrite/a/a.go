// Package a exercises the unchecked-write check.
package a

import (
	"bytes"
	"io"
	"strings"

	"fix/wire"
)

type enc struct{}

func (enc) Encode(v int) error { return nil }
func (enc) Flush() error       { return nil }

func f(w io.Writer, conn io.Writer) error {
	wire.WriteFrame(conn, &wire.Message{Type: 1}) // want unchecked-write
	w.Write(nil)                                  // want unchecked-write

	var e enc
	e.Encode(1) // want unchecked-write
	e.Flush()   // want unchecked-write

	if err := wire.WriteFrame(conn, &wire.Message{}); err != nil { // checked: ok
		return err
	}
	_ = wire.WriteFrame(conn, &wire.Message{}) // explicit discard: ok

	var b bytes.Buffer
	b.WriteByte('x') // bytes.Buffer never fails: ok
	var sb strings.Builder
	sb.WriteString("x") // strings.Builder never fails: ok

	wire.WriteFrame(conn, &wire.Message{}) //livenas:allow unchecked-write suppressed for the fixture
	return nil
}
