package durwrap_test

import (
	"testing"

	"politewifi/internal/lint/analysistest"
	"politewifi/internal/lint/durwrap"
)

func TestDurwrap(t *testing.T) {
	analysistest.Run(t, durwrap.Analyzer, "a")
}
