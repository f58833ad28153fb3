// Fixture for the errdrop analyzer: positive hits, negative non-hits,
// and allow-suppression in a non-test file.
package a

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
)

func mayFail() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

func triple() (int, string, error) { return 0, "", errors.New("boom") }

func noError() int { return 0 }

// group mirrors sim.Group: Wait joins the workers and returns the first
// error one of them returned.
type group struct{}

func (*group) Wait() error { return errors.New("boom") }

type custom struct{}

func (custom) Error() string { return "custom" }

func makeCustom() custom { return custom{} }

func drops() {
	mayFail()       // want `result of mayFail discards its error`
	defer mayFail() // want `deferred call to mayFail discards its error`
	pair()          // want `result of pair discards its error`

	_ = mayFail() // want `error result of mayFail is discarded with _`

	n, _ := pair() // want `error result of pair is discarded with _`
	_ = n

	_, s, _ := triple() // want `error result of triple is discarded with _`
	_ = s

	err := mayFail()
	_ = err // want `error value is discarded with _`
}

func join(g *group) error {
	g.Wait()     // want `result of g.Wait discards its error`
	_ = g.Wait() // want `error result of g.Wait is discarded with _`
	return g.Wait()
}

func concrete() {
	makeCustom() // want `result of makeCustom discards its error`
}

// bufio.Writer's write errors are sticky and surface at Flush, so only the
// Flush must be checked.
func buffered(bw *bufio.Writer) {
	bw.WriteString("x")
	bw.WriteByte('x')
	bw.Flush() // want `result of bw.Flush discards its error`
}

func allowed() {
	mayFail() //lint:allow errdrop fixture exercises suppression
	//lint:allow errdrop fixture exercises line-above suppression
	_ = mayFail()
}

func clean() error {
	if err := mayFail(); err != nil {
		return err
	}
	n, err := pair()
	if err != nil {
		return err
	}
	noError()
	_ = n

	// Exempt callees never flag.
	fmt.Println("status")
	fmt.Printf("%d\n", n)
	var b bytes.Buffer
	b.WriteString("x")
	var sb strings.Builder
	sb.WriteString("y")
	_, _ = fmt.Fprintf(&b, "%d", n)

	// Conversions are CallExprs but not calls.
	_ = error(nil)
	return nil
}
