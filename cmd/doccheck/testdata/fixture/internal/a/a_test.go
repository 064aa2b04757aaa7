package a

import "testing"

func TestUncalled(t *testing.T) { Uncalled() }

func TestCalled(t *testing.T) { Called() }

func TestUnused(t *testing.T) { _ = Unused{n: unusedLimit + CodeB}.String() }
