# Count the non-test and test lines of the Rust files given as
# arguments, and print "<non-test> non-test, <test> test" for all of
# them together.
#
# A line is a test line when it belongs to a `#[cfg(test)]` item: the
# attribute itself, the attributes and comments that follow it, and the
# item. A top-level `#[cfg(test)] mod name {` makes the rest of its file
# test code. Any other item ends at the first `}` line indented as
# deeply as the attribute; an item whose first line ends in `,` or `;`
# is that one line. Every other line, blank lines and comments included,
# is a non-test line.
#
#   awk -f .github/nontest-lines.awk $(find crates/core/src -name '*.rs' | sort)

FNR == 1 { s = 0; m = 0 }

m { t++; next }

s {
    t++
    if (match($0, /^ */) && RLENGTH == i && $0 ~ /^ *}/) s = 0
    next
}

/^ *#\[cfg\(test\)\]$/ {
    t++
    match($0, /^ */)
    i = RLENGTH
    while ((getline) > 0 && $0 ~ /^ *(#\[|\/\/)/) t++
    t++
    if (i == 0 && $0 ~ /^(pub\(crate\) )?mod [a-z_]+ \{/) { m = 1; next }
    if ($0 !~ /[,;]$/) s = 1
    next
}

{ n++ }

END { print n + 0 " non-test, " t + 0 " test" }
